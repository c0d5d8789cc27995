package sparse

import (
	"math/rand"
	"testing"

	"prometheus/internal/obs"
)

// TestSpMVZeroAlloc locks in the zero-allocation guarantee that the
// hotloop-alloc lint rule enforces statically: steady-state SpMV must
// not touch the allocator.
func TestSpMVZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randCSR(rng, 300, 300, 0.05)
	x := make([]float64, a.NCols)
	y := make([]float64, a.NRows)
	r := make([]float64, a.NRows)
	for i := range x {
		x[i] = rng.Float64()
	}
	if n := testing.AllocsPerRun(50, func() { a.MulVec(x, y) }); n != 0 {
		t.Errorf("MulVec allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { a.MulVecRange(x, y, 0, a.NRows/2) }); n != 0 {
		t.Errorf("MulVecRange allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { a.Residual(y, x, r) }); n != 0 {
		t.Errorf("Residual allocates %.1f per call, want 0", n)
	}
}

// TestBSRSpMVZeroAlloc locks in the zero-allocation guarantee for the
// blocked kernels: the 3x3 micro-kernel, the ragged-range fallback and the
// blocked residual must not touch the allocator in steady state.
func TestBSRSpMVZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randBSR(rng, 100, 100, 3, 0.05)
	x := make([]float64, a.Cols())
	y := make([]float64, a.Rows())
	r := make([]float64, a.Rows())
	for i := range x {
		x[i] = rng.Float64()
	}
	if n := testing.AllocsPerRun(50, func() { a.MulVec(x, y) }); n != 0 {
		t.Errorf("BSR.MulVec allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { a.MulVecRange(x, y, 1, a.Rows()-1) }); n != 0 {
		t.Errorf("BSR.MulVecRange allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { a.Residual(y, x, r) }); n != 0 {
		t.Errorf("BSR.Residual allocates %.1f per call, want 0", n)
	}
}

// TestSpMVZeroAllocObsEnabled locks in the same guarantee with the
// observability subsystem recording: the instrumented MulVec paths
// write spans into preallocated buffers, so enabling obs must not add
// a single allocation to the kernels.
func TestSpMVZeroAllocObsEnabled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randCSR(rng, 300, 300, 0.05)
	ab := randBSR(rng, 100, 100, 3, 0.05)
	x := make([]float64, a.NCols)
	y := make([]float64, a.NRows)
	xb := make([]float64, ab.Cols())
	yb := make([]float64, ab.Rows())
	for i := range x {
		x[i] = rng.Float64()
	}
	obs.EnableWith(obs.Config{RingCap: 1 << 12})
	defer obs.Disable()
	if n := testing.AllocsPerRun(50, func() { a.MulVec(x, y) }); n != 0 {
		t.Errorf("MulVec with obs enabled allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { ab.MulVec(xb, yb) }); n != 0 {
		t.Errorf("BSR.MulVec with obs enabled allocates %.1f per call, want 0", n)
	}
}
