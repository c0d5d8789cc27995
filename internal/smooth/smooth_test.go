package smooth

import (
	"errors"
	"math"
	"strings"
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/la"
	"prometheus/internal/sparse"
)

// laplace1D returns the n×n tridiagonal [-1, 2, -1] matrix.
func laplace1D(n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i+1 < n {
			b.Add(i, i+1, -1)
			b.Add(i+1, i, -1)
		}
	}
	return b.Build()
}

// laplace3D returns the 7-point Laplacian on an n³ grid.
func laplace3D(n int) *sparse.CSR {
	id := func(i, j, k int) int { return (i*n+j)*n + k }
	b := sparse.NewBuilder(n*n*n, n*n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				me := id(i, j, k)
				b.Add(me, me, 6)
				if i > 0 {
					b.Add(me, id(i-1, j, k), -1)
				}
				if i < n-1 {
					b.Add(me, id(i+1, j, k), -1)
				}
				if j > 0 {
					b.Add(me, id(i, j-1, k), -1)
				}
				if j < n-1 {
					b.Add(me, id(i, j+1, k), -1)
				}
				if k > 0 {
					b.Add(me, id(i, j, k-1), -1)
				}
				if k < n-1 {
					b.Add(me, id(i, j, k+1), -1)
				}
			}
		}
	}
	return b.Build()
}

// blockLaplace returns an n-node block-tridiagonal SPD operator with 3x3
// node blocks: coupled diagonal blocks and -I off-diagonal blocks — a toy
// vector-valued elasticity stand-in on node-blocked storage.
func blockLaplace(n int) *sparse.BSR {
	bb := sparse.NewBlockBuilder(n, n, 3)
	diag := []float64{4, 1, 0, 1, 4, 1, 0, 1, 4}
	off := []float64{-1, 0, 0, 0, -1, 0, 0, 0, -1}
	for i := 0; i < n; i++ {
		bb.AddBlock(i, i, diag)
		if i+1 < n {
			bb.AddBlock(i, i+1, off)
			bb.AddBlock(i+1, i, off)
		}
	}
	return bb.Build()
}

// errorNorm returns ‖b - A·x‖₂.
func errorNorm(a sparse.Operator, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.Residual(b, x, r)
	return la.Norm2(r)
}

// checkReduces verifies that n smoothing steps reduce the residual
// monotonically to below frac of the initial.
func checkReduces(t *testing.T, s *CGSmoother, a sparse.Operator, sweeps int, frac float64) {
	t.Helper()
	n := a.Rows()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i + 1))
	}
	x := make([]float64, n)
	r0 := errorNorm(a, x, b)
	prev := r0
	for k := 0; k < sweeps; k++ {
		s.Smooth(x, b, 1)
		r := errorNorm(a, x, b)
		if r > prev*(1+1e-12) && r > 1e-12*r0 {
			t.Fatalf("sweep %d increased residual: %v -> %v", k, prev, r)
		}
		prev = r
	}
	if prev > frac*r0 {
		t.Fatalf("residual only reduced to %v of initial after %d sweeps", prev/r0, sweeps)
	}
	if s.Flops() <= 0 {
		t.Fatal("flops not counted")
	}
}

func TestBlockJacobi(t *testing.T) {
	a := laplace3D(6)
	n := a.NRows
	// Graph partition on the matrix pattern, paper block density.
	g := matrixGraph(a)
	nb := DefaultBlockCount(n)
	part := graph.GreedyPartition(g, nb)
	s, err := blockJacobi(a, part, nb)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() < 1 {
		t.Fatal("no blocks")
	}
	if s.SetupFlops <= 0 {
		t.Fatal("setup flops not counted")
	}
	checkReduces(t, NewCGSmoother(a, s), a, 60, 0.3)
}

// TestJacobiApply: block Jacobi with one block per dof degenerates to
// pointwise Jacobi, z = D⁻¹·r.
func TestJacobiApply(t *testing.T) {
	a := laplace3D(6)
	n := a.NRows
	d := a.Diag()
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	z := make([]float64, n)
	pointJacobi(t, a).Solve(r, z)
	for i := range z {
		if math.Abs(z[i]-r[i]/d[i]) > 1e-12 {
			t.Fatalf("pointwise block Jacobi != Jacobi at %d", i)
		}
	}
}

// pointJacobi is block Jacobi with one block per dof: pointwise Jacobi.
func pointJacobi(t *testing.T, a *sparse.CSR) *DomainBlockJacobi {
	t.Helper()
	part := make([]int, a.NRows)
	for i := range part {
		part[i] = i
	}
	s, err := blockJacobi(a, part, a.NRows)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBlockJacobiSingleBlockIsDirect(t *testing.T) {
	// One block covering everything solves the system exactly.
	a := laplace1D(20)
	part := make([]int, 20)
	s, err := blockJacobi(a, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 20)
	for i := range b {
		b[i] = float64(i)
	}
	x := make([]float64, 20)
	s.Solve(b, x)
	if r := errorNorm(a, x, b); r > 1e-10 {
		t.Fatalf("single-block residual = %v", r)
	}
}

// TestBlockJacobiShiftRetry: a block that is positive definite only to
// within roundoff (here exactly singular, the free-free 1D Laplacian) is
// factored after a diagonal shift; the gather runs again for the retry
// because the failed factorization overwrote its input.
func TestBlockJacobiShiftRetry(t *testing.T) {
	const n = 12
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		d := 2.0
		if i == 0 || i == n-1 {
			d = 1
		}
		b.Add(i, i, d)
		if i > 0 {
			b.Add(i, i-1, -1)
			b.Add(i-1, i, -1)
		}
	}
	a := b.Build()
	s, err := blockJacobi(a, make([]int, n), 1)
	if err != nil {
		t.Fatalf("singular block was not rescued by a shift: %v", err)
	}
	// The constant vector spans the null space; any other right-hand side
	// must come back finite and solve the block to the accuracy the 1e-12
	// shift allows.
	r := make([]float64, n)
	r[0], r[n-1] = 1, -1
	z := make([]float64, n)
	s.Solve(r, z)
	az := make([]float64, n)
	a.MulVec(z, az)
	for i := range az {
		if math.IsNaN(z[i]) || math.Abs(az[i]-r[i]) > 1e-6 {
			t.Fatalf("shifted solve wrong at %d: z=%v A·z=%v r=%v", i, z[i], az[i], r[i])
		}
	}
}

// TestBlockJacobiRejectsBrokenBlock: a block no admissible shift can make
// positive definite — indefinite, or poisoned with NaN or Inf — ends the
// bounded shift escalation in the typed error, never in a NaN factor.
func TestBlockJacobiRejectsBrokenBlock(t *testing.T) {
	for _, bad := range []float64{-4, math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := laplace1D(10)
		for k := a.RowPtr[6]; k < a.RowPtr[7]; k++ {
			if a.ColIdx[k] == 6 {
				a.Val[k] = bad
			}
		}
		part := make([]int, 10)
		for i := 5; i < 10; i++ {
			part[i] = 1
		}
		_, err := blockJacobi(a, part, 2)
		if !errors.Is(err, la.ErrNotSPD) || !strings.Contains(err.Error(), "smooth: block 1 (5 dofs)") {
			t.Fatalf("diagonal %v: err = %v, want the wrapped block error", bad, err)
		}
	}
}

// TestCGSmootherBreakdownLeavesX: a poisoned right-hand side (non-finite
// rz) or an operator that is not positive definite (pᵀAp <= 0) stops the
// smoothing step before it touches x.
func TestCGSmootherBreakdownLeavesX(t *testing.T) {
	a := laplace1D(16)
	b := make([]float64, 16)
	for i := range b {
		b[i] = float64(i%3) - 1
	}
	check := func(name string, s *CGSmoother, rhs []float64) {
		x := make([]float64, 16)
		for i := range x {
			x[i] = 0.25
		}
		s.Smooth(x, rhs, 3)
		for i, v := range x {
			if v != 0.25 {
				t.Fatalf("%s: x[%d] = %v after breakdown, want it untouched", name, i, v)
			}
		}
	}
	nan := append([]float64(nil), b...)
	nan[7] = math.NaN()
	check("NaN rhs", NewCGSmoother(a, pointJacobi(t, a)), nan)
	inf := append([]float64(nil), b...)
	inf[7] = math.Inf(1)
	check("Inf rhs", NewCGSmoother(a, pointJacobi(t, a)), inf)
	neg := a.Clone()
	neg.Scale(-1)
	check("negative definite", NewCGSmoother(neg, pointJacobi(t, a)), b)
}

// TestCGSmootherResidualHandOff pins the residual hand-off contract: the
// vector SmoothResidual returns is b - A·x of the x it leaves, after full
// steps and on the breakdown return alike, and a guess declared zero yields
// the x a zeroed guess does, bit for bit, for one operator product fewer.
func TestCGSmootherResidualHandOff(t *testing.T) {
	a := laplace3D(5)
	n := a.NRows
	b := make([]float64, n)
	guess := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.7)
		guess[i] = math.Cos(float64(i) * 0.3)
	}
	neg := a.Clone()
	neg.Scale(-1)
	want := make([]float64, n)
	for name, op := range map[string]*sparse.CSR{"three CG steps": a, "breakdown before the first": neg} {
		rs := NewCGSmoother(op, pointJacobi(t, a))
		x := append([]float64(nil), guess...)
		r := rs.SmoothResidual(x, b, 3, false)
		op.Residual(b, x, want)
		for i := range r {
			if math.Abs(r[i]-want[i]) > 1e-12 {
				t.Fatalf("%s: returned residual[%d] = %v, b - A·x = %v", name, i, r[i], want[i])
			}
		}
	}
	cold, declared := NewCGSmoother(a, pointJacobi(t, a)), NewCGSmoother(a, pointJacobi(t, a))
	xc, xd := make([]float64, n), make([]float64, n)
	rc := cold.SmoothResidual(xc, b, 2, false)
	rd := declared.SmoothResidual(xd, b, 2, true)
	for i := range xc {
		if math.Float64bits(xc[i]) != math.Float64bits(xd[i]) || math.Float64bits(rc[i]) != math.Float64bits(rd[i]) {
			t.Fatalf("dof %d: a guess declared zero gives x = %v, r = %v; a zeroed guess %v, %v", i, xd[i], rd[i], xc[i], rc[i])
		}
	}
	if saved := cold.Flops() - declared.Flops(); saved != a.MulVecFlops()+int64(n) {
		t.Fatalf("the zero guess saved %d flops, want one residual (%d)", saved, a.MulVecFlops()+int64(n))
	}
}

func TestDefaultBlockCount(t *testing.T) {
	if DefaultBlockCount(1000) != 6 {
		t.Fatal("paper rule: 6 blocks per 1000")
	}
	if DefaultBlockCount(10) != 1 {
		t.Fatal("minimum one block")
	}
	if DefaultBlockCount(40000) != 240 {
		t.Fatalf("got %d", DefaultBlockCount(40000))
	}
}

func TestSmootherSymmetryForPCG(t *testing.T) {
	// Block Jacobi applies a symmetric operator (M⁻¹ SPD), with one dof per
	// block and with graph-partitioned blocks: check ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩.
	a := laplace3D(4)
	n := a.NRows
	part := graph.GreedyPartition(matrixGraph(a), 5)
	bj, err := blockJacobi(a, part, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DomainBlockJacobi{pointJacobi(t, a), bj} {
		u := make([]float64, n)
		v := make([]float64, n)
		for i := range u {
			u[i] = math.Sin(float64(3 * i))
			v[i] = math.Cos(float64(2 * i))
		}
		mu := make([]float64, n)
		mv := make([]float64, n)
		s.Solve(u, mu)
		s.Solve(v, mv)
		if d := la.Dot(mu, v) - la.Dot(u, mv); math.Abs(d) > 1e-10 {
			t.Fatalf("preconditioner not symmetric: %v", d)
		}
	}
}

func TestCGSmootherStrongerThanInner(t *testing.T) {
	// One CG-wrapped sweep must reduce the residual at least as much as
	// the optimally damped inner sweep (CG line search is optimal in the
	// A-norm along the preconditioned direction).
	a := laplace3D(5)
	n := a.NRows
	part := graph.GreedyPartition(matrixGraph(a), 4)
	inner, err := blockJacobi(a, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	cg := NewCGSmoother(a, inner)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.7)
	}
	x := make([]float64, n)
	cg.Smooth(x, b, 5)
	rCG := errorNorm(a, x, b)
	r0 := errorNorm(a, make([]float64, n), b)
	if rCG >= r0 {
		t.Fatalf("CG smoother did not reduce residual: %v -> %v", r0, rCG)
	}
	if cg.Flops() <= 0 {
		t.Fatal("flops not counted")
	}
	// Apply form from zero initial guess.
	z := make([]float64, n)
	cg.Apply(b, z)
	if la.Norm2(z) == 0 {
		t.Fatal("Apply produced nothing")
	}
}

// blockJacobi factors the blocks of a that part (dof -> block) gives,
// planned on a's own pattern as multigrid plans a scalar level.
func blockJacobi(a *sparse.CSR, part []int, nblocks int) (*DomainBlockJacobi, error) {
	g := &graph.Graph{N: a.NRows, Ptr: a.RowPtr, Adj: a.ColIdx}
	return PlanBlocks(g, 1, graph.PartMembers(part, nblocks)).Factor(a)
}

// matrixGraph builds the adjacency graph of a matrix pattern.
func matrixGraph(a *sparse.CSR) *graph.Graph {
	return graph.NewFromPattern(a.NRows, a.RowPtr, a.ColIdx)
}
