package smooth

import (
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/obs"
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
