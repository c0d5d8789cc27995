package smooth

import (
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// TestSmootherSweepsZeroAlloc asserts every smoother's steady-state
// Smooth and Apply paths are allocation-free: all scratch is hoisted
// into the smoother at construction time (enforced statically by the
// hotloop-alloc lint rule, locked in dynamically here).
func TestSmootherSweepsZeroAlloc(t *testing.T) {
	a := laplace3D(6)
	n := a.NRows

	g := matrixGraph(a)
	nb := DefaultBlockCount(n)
	bj, err := NewDomainBlockJacobi(a, a, graph.GreedyPartition(g, nb), nb)
	if err != nil {
		t.Fatal(err)
	}

	smoothers := []struct {
		name string
		s    Smoother
	}{
		{"Jacobi", NewJacobi(a, 2.0/3)},
		{"GaussSeidel", NewGaussSeidel(a, 1, true)},
		{"Chebyshev", NewChebyshev(a, 3, 30)},
		{"BlockJacobi", bj},
		{"CGSmoother", NewCGSmoother(a, bj, 2)},
	}
	b := make([]float64, n)
	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
		r[i] = float64(i%3) - 1
	}
	for _, tc := range smoothers {
		if got := testing.AllocsPerRun(20, func() { tc.s.Smooth(x, b, 2) }); got != 0 {
			t.Errorf("%s.Smooth allocates %.1f per call, want 0", tc.name, got)
		}
		if got := testing.AllocsPerRun(20, func() { tc.s.Apply(r, z) }); got != 0 {
			t.Errorf("%s.Apply allocates %.1f per call, want 0", tc.name, got)
		}
	}

	// The same sweeps with observability recording: the obs spans the
	// instrumented smoothers open land in preallocated buffers, so the
	// zero-allocation guarantee holds with profiling on too.
	obs.EnableWith(obs.Config{RingCap: 1 << 12})
	defer obs.Disable()
	for _, tc := range smoothers {
		if got := testing.AllocsPerRun(20, func() { tc.s.Smooth(x, b, 2) }); got != 0 {
			t.Errorf("%s.Smooth with obs enabled allocates %.1f per call, want 0", tc.name, got)
		}
	}
}

// TestNodeBlockSweepsZeroAlloc locks in the zero-allocation guarantee for
// the BSR smoother paths: node-block Jacobi and the nodal Gauss-Seidel
// sweep precompute their block inverses at setup and never allocate per
// sweep.
func TestNodeBlockSweepsZeroAlloc(t *testing.T) {
	a := blockLaplace(60)
	n := a.Rows()
	smoothers := []struct {
		name string
		s    Smoother
	}{
		{"NodeBlockJacobi", mustNodeBlockJacobi(t, a, 2.0/3)},
		{"GaussSeidelNodal", NewGaussSeidel(a, 1, true)},
		{"JacobiOnBSR", NewJacobi(a, 2.0/3)},
	}
	b := make([]float64, n)
	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
		r[i] = float64(i%3) - 1
	}
	for _, tc := range smoothers {
		if got := testing.AllocsPerRun(20, func() { tc.s.Smooth(x, b, 2) }); got != 0 {
			t.Errorf("%s.Smooth allocates %.1f per call, want 0", tc.name, got)
		}
		if got := testing.AllocsPerRun(20, func() { tc.s.Apply(r, z) }); got != 0 {
			t.Errorf("%s.Apply allocates %.1f per call, want 0", tc.name, got)
		}
	}
}

// TestF32SweepsZeroAlloc locks in the zero-allocation guarantee for the
// mixed-precision smoother paths: the f32 Gauss-Seidel sweeps (scalar and
// nodal), node-block Jacobi over BSR32, and point Jacobi over CSR32 hoist
// all scratch (including the f64 block inverses widened at setup) into
// the smoother and never allocate per sweep.
func TestF32SweepsZeroAlloc(t *testing.T) {
	a32 := sparse.ToCSR32(laplace3D(6))
	ab32 := sparse.ToBSR32(blockLaplace(60))
	smoothers := []struct {
		name string
		s    Smoother
	}{
		{"GaussSeidelCSR32", NewGaussSeidel(a32, 1, true)},
		{"JacobiCSR32", NewJacobi(a32, 2.0/3)},
		{"GaussSeidelBSR32", NewGaussSeidel(ab32, 1, true)},
		{"NodeBlockJacobi32", mustNodeBlockJacobi(t, ab32, 2.0/3)},
	}
	n := a32.Rows()
	b := make([]float64, n)
	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
		r[i] = float64(i%3) - 1
	}
	nb := ab32.Rows()
	bb := make([]float64, nb)
	xb := make([]float64, nb)
	for _, tc := range smoothers {
		xx, rr, zz, bv := x, r, z, b
		if tc.name == "GaussSeidelBSR32" || tc.name == "NodeBlockJacobi32" {
			xx, rr, zz, bv = xb, bb, xb, bb
		}
		if got := testing.AllocsPerRun(20, func() { tc.s.Smooth(xx, bv, 2) }); got != 0 {
			t.Errorf("%s.Smooth allocates %.1f per call, want 0", tc.name, got)
		}
		if got := testing.AllocsPerRun(20, func() { tc.s.Apply(rr, zz) }); got != 0 {
			t.Errorf("%s.Apply allocates %.1f per call, want 0", tc.name, got)
		}
	}
}
