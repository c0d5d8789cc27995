package smooth

import (
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// checkSweepsZeroAlloc asserts that the smoother on a — CG over block
// Jacobi in nb blocks — is allocation-free in steady state: Smooth and
// Apply, and the block solves on their own, with observability recording
// off and on. All scratch is hoisted into the smoother at construction
// time, and the obs spans land in preallocated buffers.
func checkSweepsZeroAlloc(t *testing.T, a sparse.Operator, nb int) {
	t.Helper()
	view := sparse.AsCSR(a)
	part := graph.GreedyPartition(matrixGraph(view), nb)
	bj, err := PlanBlocks(view, graph.PartMembers(part, nb)).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	cg := NewCGSmoother(a, bj)
	n := a.Rows()
	b := make([]float64, n)
	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
		r[i] = float64(i%3) - 1
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"CGSmoother.Smooth", func() { cg.Smooth(x, b, 2) }},
		{"CGSmoother.Apply", func() { cg.Apply(r, z) }},
		{"DomainBlockJacobi.Apply", func() { bj.Apply(r, z) }},
	} {
		if got := testing.AllocsPerRun(20, c.f); got != 0 {
			t.Errorf("%T: %s allocates %.1f per call, want 0", a, c.name, got)
		}
		obs.EnableWith(obs.Config{RingCap: 1 << 12})
		got := testing.AllocsPerRun(20, c.f)
		obs.Disable()
		if got != 0 {
			t.Errorf("%T: %s with obs enabled allocates %.1f per call, want 0", a, c.name, got)
		}
	}
}

// TestSmootherSweepsZeroAlloc locks in the zero-allocation guarantee on
// scalar CSR storage.
func TestSmootherSweepsZeroAlloc(t *testing.T) {
	a := laplace3D(6)
	checkSweepsZeroAlloc(t, a, DefaultBlockCount(a.NRows))
}

// TestNodeBlockSweepsZeroAlloc locks it in on node-blocked BSR storage,
// whose blocks are gathered from the 3x3 node blocks.
func TestNodeBlockSweepsZeroAlloc(t *testing.T) {
	checkSweepsZeroAlloc(t, blockLaplace(60), 3)
}
