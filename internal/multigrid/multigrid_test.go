package multigrid

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"prometheus/internal/core"
	"prometheus/internal/direct"
	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/krylov"
	"prometheus/internal/la"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/sparse"
)

// buildElasticity assembles the reduced system for an n³ cube with the
// bottom face fixed and a downward surface load on top, plus the compressed
// restriction chain.
func buildElasticity(t *testing.T, n int, coarsenOpts core.Options) (*sparse.CSR, []float64, []*sparse.CSR) {
	t.Helper()
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	c := fem.NewConstraints()
	for _, v := range m.VertsWhere(func(q geom.Vec3) bool { return q.Z == 0 }) {
		c.FixVert(v, 0, 0, 0)
	}
	f := make([]float64, m.NumDOF())
	for _, v := range m.VertsWhere(func(q geom.Vec3) bool { return q.Z == 1 }) {
		f[3*v+2] = -0.001
	}
	dm := c.NewDofMap(m.NumDOF())
	kr, fr := c.Reduce(k, f, dm)

	h, err := core.Coarsen(m, coarsenOpts)
	if err != nil {
		t.Fatal(err)
	}
	return kr, fr, restrictionChain(h, dm)
}

// restrictionChain lists the hierarchy's restrictions with the first one
// compressed against the constraints, as prometheus.NewSolver does.
func restrictionChain(h *core.Hierarchy, dm *fem.DofMap) []*sparse.CSR {
	var rs []*sparse.CSR
	for l := 1; l < h.NumLevels(); l++ {
		r := h.Grids[l].R
		if l == 1 {
			r = CompressCols(r, dm.Full2Red, dm.NumFree())
		}
		rs = append(rs, r)
	}
	return rs
}

func TestCompressCols(t *testing.T) {
	b := sparse.NewBuilder(2, 4)
	b.Add(0, 0, 1)
	b.Add(0, 2, 2)
	b.Add(1, 3, 3)
	r := b.Build()
	full2red := []int{0, -1, 1, -1}
	cr := CompressCols(r, full2red, 2)
	if cr.NCols != 2 || cr.At(0, 0) != 1 || cr.At(0, 1) != 2 || cr.At(1, 1) != 0 {
		t.Fatalf("compress wrong: %+v", cr)
	}
}

func TestMGSolveMatchesDirect(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	if len(rs) == 0 {
		t.Fatal("no coarse levels")
	}
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	cycles, rel := mg.Solve(f, x, 1e-10, 100)
	if rel > 1e-10 {
		t.Fatalf("MG stalled: rel = %v after %d cycles", rel, cycles)
	}
	// Compare with the sparse direct solution.
	ch, err := direct.New(k)
	if err != nil {
		t.Fatal(err)
	}
	xd := make([]float64, k.NRows)
	ch.Solve(f, xd)
	diff := 0.0
	for i := range x {
		diff += (x[i] - xd[i]) * (x[i] - xd[i])
	}
	if math.Sqrt(diff) > 1e-7*(1+la.Norm2(xd)) {
		t.Fatalf("MG and direct disagree by %v", math.Sqrt(diff))
	}
	if mg.Flops() <= 0 || mg.SetupFlops <= 0 {
		t.Fatal("flops not counted")
	}
}

func TestPCGWithMGBeatsPlainCG(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	pcg := krylov.FPCG(k, f, x, mg, 1e-8, 200)
	if !pcg.Converged {
		t.Fatalf("MG-PCG did not converge in %d its", pcg.Iterations)
	}
	x2 := make([]float64, k.NRows)
	plain := krylov.CG(k, f, x2, 1e-8, 20000)
	if !plain.Converged {
		t.Fatal("plain CG did not converge")
	}
	if pcg.Iterations*3 > plain.Iterations {
		t.Fatalf("MG-PCG (%d its) should dominate CG (%d its)", pcg.Iterations, plain.Iterations)
	}
	t.Logf("MG-PCG %d its vs CG %d its", pcg.Iterations, plain.Iterations)
}

func TestIterationCountRoughlyFlat(t *testing.T) {
	// Table 2 shape: MG-PCG iterations stay bounded as the mesh refines.
	var its []int
	for _, n := range []int{3, 4, 6} {
		k, f, rs := buildElasticity(t, n, core.Options{MinCoarse: 30})
		var mg *MG
		var err error
		if len(rs) == 0 {
			t.Fatalf("n=%d: no coarsening", n)
		}
		mg, err = New(k, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-6, 300)
		if !res.Converged {
			t.Fatalf("n=%d: not converged", n)
		}
		its = append(its, res.Iterations)
	}
	t.Logf("iterations across sizes: %v", its)
	for _, it := range its {
		if it > 60 {
			t.Fatalf("iteration count blow-up: %v", its)
		}
	}
	// Growth from smallest to largest must be mild (paper actually sees a
	// decrease).
	if float64(its[2]) > 2.5*float64(its[0])+5 {
		t.Fatalf("iterations not flat: %v", its)
	}
}

func TestVCycleAndFMGBothWork(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	for _, cyc := range []CycleKind{VCycle, FMG} {
		mg, err := New(k, rs, Options{Cycle: cyc})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-8, 200)
		if !res.Converged {
			t.Fatalf("cycle %v did not converge", cyc)
		}
	}
}

func TestSmootherVariants(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	for _, s := range []SmootherKind{DomainBlockJacobiCG, DomainBlockJacobi, Jacobi, GaussSeidel, Chebyshev} {
		mg, err := New(k, rs, Options{Smoother: s, Cycle: VCycle})
		if err != nil {
			t.Fatalf("smoother %v: %v", s, err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-8, 400)
		if !res.Converged {
			t.Fatalf("smoother %v did not converge", s)
		}
	}
}

func TestOperatorComplexityModest(t *testing.T) {
	k, _, rs := buildElasticity(t, 5, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oc := mg.OperatorComplexity()
	if oc < 1 || oc > 3.5 {
		t.Fatalf("operator complexity = %v", oc)
	}
	if mg.NumLevels() != len(rs)+1 {
		t.Fatal("level count mismatch")
	}
}

func TestGalerkinOperatorsSymmetric(t *testing.T) {
	k, _, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range mg.Levels {
		if !opSymmetric(l.A, 1e-8) {
			t.Fatalf("level %d operator not symmetric", li)
		}
	}
}

// TestStorageParity pins the central refactor invariant: switching the
// hierarchy from scalar CSR to node-block BSR changes only the storage
// layout, never the arithmetic. Galerkin products, smoother sweeps and
// the Krylov iteration must produce bitwise-identical solutions and the
// exact same iteration count.
func TestStorageParity(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	solve := func(st StorageKind) ([]float64, int) {
		mg, err := New(k, rs, Options{Storage: st})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-8, 400)
		if !res.Converged {
			t.Fatalf("storage %v did not converge", st)
		}
		return x, res.Iterations
	}
	xc, ic := solve(StorageCSR)
	xb, ib := solve(StorageBSR)
	if ic != ib {
		t.Fatalf("iteration counts differ: CSR %d vs BSR %d", ic, ib)
	}
	for i := range xc {
		if math.Float64bits(xc[i]) != math.Float64bits(xb[i]) {
			t.Fatalf("solutions differ at dof %d: %v vs %v", i, xc[i], xb[i])
		}
	}
	// The BSR hierarchy must actually be blocked on the fine level.
	mg, err := New(k, rs, Options{Storage: StorageBSR})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mg.Levels[0].A.(*sparse.BSR); !ok {
		t.Fatalf("fine level is %T, want *sparse.BSR", mg.Levels[0].A)
	}
}

// TestNodeBlockJacobiSmootherConverges exercises the BSR-only smoother
// end to end: it requires blocked storage and must reject CSR.
func TestNodeBlockJacobiSmootherConverges(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	if _, err := New(k, rs, Options{Smoother: NodeBlockJacobi, Storage: StorageCSR}); err == nil {
		t.Fatal("NodeBlockJacobi on CSR storage should fail")
	}
	mg, err := New(k, rs, Options{Smoother: NodeBlockJacobi, Storage: StorageBSR})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	res := krylov.FPCG(k, f, x, mg, 1e-8, 400)
	if !res.Converged {
		t.Fatal("NodeBlockJacobi-smoothed MG did not converge")
	}
}

func TestMGRejectsBadInput(t *testing.T) {
	b := sparse.NewBuilder(4, 3)
	b.Add(0, 0, 1)
	if _, err := New(b.Build(), nil, Options{}); err == nil {
		t.Fatal("non-square should fail")
	}
	id := sparse.Identity(4)
	rbad := sparse.NewBuilder(2, 7)
	rbad.Add(0, 0, 1)
	if _, err := New(id, []*sparse.CSR{rbad.Build()}, Options{}); err == nil {
		t.Fatal("mismatched restriction should fail")
	}
}

// TestNewRejectsBrokenSmootherBlock: a fine operator with a NaN-poisoned
// or an indefinite smoother block fails hierarchy setup with the wrapped
// block error on both storages and both domain smoothers — it never
// panics and never hands back a smoother that sweeps NaN.
func TestNewRejectsBrokenSmootherBlock(t *testing.T) {
	k, _, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	dof := k.NRows / 2
	for name, bad := range map[string]float64{"NaN": math.NaN(), "indefinite": -1e3 * k.At(dof, dof)} {
		a := k.Clone()
		for p := a.RowPtr[dof]; p < a.RowPtr[dof+1]; p++ {
			if a.ColIdx[p] == dof {
				a.Val[p] = bad
			}
		}
		for _, opts := range []Options{
			{Storage: StorageCSR},
			{Storage: StorageBSR},
			{Storage: StorageCSR, Smoother: DomainBlockJacobi},
		} {
			mg, err := New(a, rs, opts)
			if mg != nil || !errors.Is(err, la.ErrNotSPD) || !strings.Contains(err.Error(), "multigrid: block smoother: smooth: block ") {
				t.Fatalf("%s diagonal, %+v: mg = %v, err = %v; want the wrapped block error", name, opts, mg, err)
			}
		}
	}
}

func TestWCycleWorksAndIsStronger(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 30})
	its := func(c CycleKind) int {
		mg, err := New(k, rs, Options{Cycle: c})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-8, 400)
		if !res.Converged {
			t.Fatalf("cycle %v did not converge", c)
		}
		return res.Iterations
	}
	v := its(VCycle)
	w := its(WCycle)
	if w > v {
		t.Fatalf("W-cycle (%d its) should not be weaker than V-cycle (%d its)", w, v)
	}
}

func TestStationaryWCycleConverges(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{Cycle: WCycle})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	cycles, rel := mg.Solve(f, x, 1e-10, 100)
	if rel > 1e-10 {
		t.Fatalf("W-cycle MG stalled: rel = %v after %d cycles", rel, cycles)
	}
}

func TestLevelWorkAccounting(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	res := krylov.FPCG(k, f, x, mg, 1e-8, 200)
	if !res.Converged {
		t.Fatal("no convergence")
	}
	work := mg.LevelWork()
	if len(work) != mg.NumLevels() {
		t.Fatal("level work length")
	}
	var total int64
	for l, w := range work {
		if w <= 0 {
			t.Fatalf("level %d did no work", l)
		}
		total += w
	}
	// Level work must not exceed the overall cycle+smoother accounting.
	if total > mg.Flops() {
		t.Fatalf("level work %d exceeds total %d", total, mg.Flops())
	}
	// Finest level dominates.
	if work[0] < work[mg.NumLevels()-1] {
		t.Fatalf("work distribution implausible: %v", work)
	}
}

func TestApplyCountsApplications(t *testing.T) {
	k, f, rs := buildElasticity(t, 3, core.Options{MinCoarse: 20})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, k.NRows)
	mg.Apply(f, z)
	mg.Apply(f, z)
	if mg.Applies != 2 {
		t.Fatalf("applies = %d", mg.Applies)
	}
}

func TestFixEmptyRows(t *testing.T) {
	// A Galerkin operator with an exactly-empty row must be pinned SPD.
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	b.Add(1, 1, 2)
	// Row/col 2 entirely absent.
	a := fixEmptyRows(b.Build())
	if a.At(2, 2) <= 0 {
		t.Fatalf("empty row not pinned: %v", a.At(2, 2))
	}
	if a.At(2, 0) != 0 || a.At(0, 2) != 0 {
		t.Fatal("pinned row must be decoupled")
	}
	// A healthy matrix passes through untouched.
	c := sparse.Identity(4)
	if got := fixEmptyRows(c); got != c {
		t.Fatal("healthy matrix should be returned as-is")
	}
}

// compressColsBuilder and fixEmptyRowsBuilder are the references the
// Select-based functions are pinned to: the same filters poured entry by
// entry through sparse.Builder.
func compressColsBuilder(r *sparse.CSR, full2red []int, nred int) *sparse.CSR {
	b := sparse.NewBuilder(r.NRows, nred)
	for i := 0; i < r.NRows; i++ {
		cols, vals := r.Row(i)
		for k, j := range cols {
			if jr := full2red[j]; jr >= 0 {
				b.Add(i, jr, vals[k])
			}
		}
	}
	return b.Build()
}

func fixEmptyRowsBuilder(a *sparse.CSR) *sparse.CSR {
	d := a.Diag()
	maxd := 0.0
	for _, v := range d {
		maxd = math.Max(maxd, v)
	}
	if maxd == 0 {
		maxd = 1
	}
	isBad := make(map[int]bool)
	for i, v := range d {
		if v <= 1e-13*maxd {
			isBad[i] = true
		}
	}
	b := sparse.NewBuilder(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		if isBad[i] {
			b.Set(i, i, maxd)
			continue
		}
		cols, vals := a.Row(i)
		for k, j := range cols {
			if !isBad[j] {
				b.Add(i, j, vals[k])
			}
		}
	}
	return b.Build()
}

// emptyRowRestriction returns a copy of r that leaves coarse dof 2 without
// fine support (row 2 emptied) and coarse dof 7 with support of weight zero
// (stored zeros on row 7): the two kinds of row fixEmptyRows pins.
func emptyRowRestriction(r *sparse.CSR) *sparse.CSR {
	rBad := r.Select(identity(r.NRows), identity(r.NCols), r.NCols, 0)
	lo, hi := rBad.RowPtr[2], rBad.RowPtr[3]
	rBad.ColIdx = slices.Delete(rBad.ColIdx, lo, hi)
	rBad.Val = slices.Delete(rBad.Val, lo, hi)
	for i := 3; i <= rBad.NRows; i++ {
		rBad.RowPtr[i] -= hi - lo
	}
	for k := rBad.RowPtr[7]; k < rBad.RowPtr[8]; k++ {
		rBad.Val[k] = 0
	}
	return rBad
}

// zeroNodeRestriction returns a copy of r, a node-conforming restriction of
// 3-dof nodes, whose coarse node 1 has support of weight zero (rows 3–5
// stored zeros): r stays node-conforming, so the Galerkin product stays
// blocked and pins a whole node.
func zeroNodeRestriction(r *sparse.CSR) *sparse.CSR {
	rBad := r.Select(identity(r.NRows), identity(r.NCols), r.NCols, 0)
	for k := rBad.RowPtr[3]; k < rBad.RowPtr[6]; k++ {
		rBad.Val[k] = 0
	}
	return rBad
}

func sameBits(a, b *sparse.CSR) bool {
	return a.NRows == b.NRows && a.NCols == b.NCols &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) &&
		slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}

// plantNegZero stores -0.0 on the first entry of row i whose column passes
// kept, so that the filter under test has to carry it.
func plantNegZero(t *testing.T, a *sparse.CSR, i int, kept func(j int) bool) {
	t.Helper()
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		if kept(a.ColIdx[k]) {
			a.Val[k] = math.Copysign(0, -1)
			return
		}
	}
	t.Fatalf("row %d keeps no entry to plant -0.0 on", i)
}

// TestSelectMatchesBuilder pins CompressCols and fixEmptyRows, now callers
// of sparse.Select, to the Builder copies they replaced, bit for bit: on a
// restriction that loses a whole row to the constraints, and on a Galerkin
// operator with an empty row, a bad row of stored zeros and a stored -0.0.
func TestSelectMatchesBuilder(t *testing.T) {
	kr, _, rs := buildElasticity(t, 4, core.Options{MinCoarse: 10})
	r := rs[0]

	// CompressCols: drop every third column and all of row 1's.
	full2red := make([]int, r.NCols)
	nred := 0
	row1, _ := r.Row(1)
	for j := range full2red {
		full2red[j] = -1
		if _, inRow1 := slices.BinarySearch(row1, j); j%3 != 0 && !inRow1 {
			full2red[j] = nred
			nred++
		}
	}
	plantNegZero(t, r, 2, func(j int) bool { return full2red[j] >= 0 })
	got := CompressCols(r, full2red, nred)
	if got.RowNNZ(1) != 0 || !sameBits(got, compressColsBuilder(r, full2red, nred)) {
		t.Fatal("CompressCols differs from the Builder reference")
	}

	// fixEmptyRows: coarse dof 2 has no fine support at all (an empty
	// row and column of the Galerkin operator), coarse dof 7 has support
	// of weight zero (stored zeros on row and column 7).
	rBad := emptyRowRestriction(r)
	ac := sparse.Galerkin(rBad, kr)
	if ac.RowNNZ(2) != 0 || ac.RowNNZ(7) == 0 {
		t.Fatal("the fixture lost a case it is meant to cover")
	}
	plantNegZero(t, ac, 4, func(j int) bool { return j != 2 && j != 4 && j != 7 })
	fixed := fixEmptyRows(ac)
	if fixed == ac || fixed.RowNNZ(2) != 1 || fixed.RowNNZ(7) != 1 || fixed.At(7, 7) <= 0 {
		t.Fatal("bad rows not pinned")
	}
	if !sameBits(fixed, fixEmptyRowsBuilder(ac)) {
		t.Fatal("fixEmptyRows differs from the Builder reference")
	}
}

// buildElasticityMF builds the same reduced elasticity system as
// buildElasticity in both forms: the assembled reduced CSR and the
// matrix-free element-by-element operator, sharing one restriction chain.
func buildElasticityMF(t *testing.T, n int) (*sparse.CSR, *fem.EBEOperator, []float64, []*sparse.CSR) {
	t.Helper()
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	u := make([]float64, m.NumDOF())
	k, _, err := p.AssembleTangent(u)
	if err != nil {
		t.Fatal(err)
	}
	c := fem.NewConstraints()
	for _, v := range m.VertsWhere(func(q geom.Vec3) bool { return q.Z == 0 }) {
		c.FixVert(v, 0, 0, 0)
	}
	f := make([]float64, m.NumDOF())
	for _, v := range m.VertsWhere(func(q geom.Vec3) bool { return q.Z == 1 }) {
		f[3*v+2] = -0.001
	}
	dm := c.NewDofMap(m.NumDOF())
	kr, fr := c.Reduce(k, f, dm)
	op, err := fem.NewEBEOperator(p, u, c, dm)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Coarsen(m, core.Options{MinCoarse: 30})
	if err != nil {
		t.Fatal(err)
	}
	return kr, op, fr, restrictionChain(h, dm)
}

// TestStorageParityMF extends the storage-parity invariant to the third
// mode: a matrix-free fine level preconditions FPCG to the same solution
// with an iteration count within ±1 of assembled CSR under the identical
// (apply-only Chebyshev) smoother. The products differ by ULPs per row —
// different summation association over the same element contributions —
// so bitwise equality is not expected; iteration parity and solution
// agreement to solver tolerance are. What the mode buys is storage: the
// packed element stiffnesses must be smaller than the assembled fine CSR.
func TestStorageParityMF(t *testing.T) {
	for _, n := range []int{4, 6} {
		kr, op, f, rs := buildElasticityMF(t, n)
		if len(rs) == 0 {
			t.Fatalf("n=%d: no coarse levels", n)
		}
		if mf, csr := op.StorageBytes(), sparse.StorageBytes(kr); mf >= csr {
			t.Errorf("n=%d: matrix-free fine level holds %d bytes, assembled CSR %d", n, mf, csr)
		}
		solve := func(a sparse.Operator, st StorageKind) ([]float64, int) {
			mg, err := New(a, rs, Options{Storage: st, Smoother: Chebyshev})
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, a.Rows())
			res := krylov.FPCG(a, f, x, mg, 1e-8, 400)
			if !res.Converged {
				t.Fatalf("n=%d: storage %v did not converge", n, st)
			}
			return x, res.Iterations
		}
		xc, ic := solve(kr, StorageCSR)
		xm, im := solve(op, StorageMatrixFree)
		if d := ic - im; d < -1 || d > 1 {
			t.Errorf("n=%d: iteration counts differ beyond ±1: CSR %d vs MF %d", n, ic, im)
		}
		num, den := 0.0, 0.0
		for i := range xc {
			num += (xc[i] - xm[i]) * (xc[i] - xm[i])
			den += xc[i] * xc[i]
		}
		if math.Sqrt(num) > 1e-6*math.Sqrt(den) {
			t.Errorf("n=%d: solutions disagree: rel diff %v", n, math.Sqrt(num/den))
		}
		t.Logf("n=%d: CSR %d its, MF %d its", n, ic, im)
	}
}

// TestMatrixFreeHierarchyShape pins the structural claims of the MF
// storage mode: the fine level stays the element-by-element operator
// (no assembled fine matrix anywhere), every coarse level is an
// assembled scalar CSR from the element-Galerkin capability, and the MF
// solve is run-to-run bitwise deterministic.
func TestMatrixFreeHierarchyShape(t *testing.T) {
	_, op, f, rs := buildElasticityMF(t, 4)
	mg, err := New(op, rs, Options{Storage: StorageMatrixFree})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mg.Levels[0].A.(*fem.EBEOperator); !ok {
		t.Fatalf("fine level is %T, want *fem.EBEOperator", mg.Levels[0].A)
	}
	for l := 1; l < len(mg.Levels); l++ {
		if _, ok := mg.Levels[l].A.(*sparse.CSR); !ok {
			t.Fatalf("level %d is %T, want *sparse.CSR", l, mg.Levels[l].A)
		}
	}
	run := func() []float64 {
		mg2, err := New(op, rs, Options{Storage: StorageMatrixFree})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, op.Rows())
		res := krylov.FPCG(op, f, x, mg2, 1e-8, 400)
		if !res.Converged {
			t.Fatal("MF solve did not converge")
		}
		return x
	}
	x1, x2 := run(), run()
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("MF solve not run-to-run deterministic at dof %d", i)
		}
	}
}

// TestMatrixFreeSmootherFallbacks covers the capability seams: the
// node-block Jacobi smoother works on the node-aligned EBE operator, the
// row-traversal smoothers (domain-block Jacobi kinds) silently fall back
// to Chebyshev rather than demanding entry access, and Gauss-Seidel —
// which genuinely needs ordered sweeps — is rejected with a clear error.
func TestMatrixFreeSmootherFallbacks(t *testing.T) {
	_, op, f, rs := buildElasticityMF(t, 4)
	if _, err := New(op, rs, Options{Storage: StorageMatrixFree, Smoother: GaussSeidel}); err == nil {
		t.Fatal("GaussSeidel on a matrix-free level should be rejected")
	}
	for _, sm := range []SmootherKind{NodeBlockJacobi, DomainBlockJacobiCG, DomainBlockJacobi} {
		mg, err := New(op, rs, Options{Storage: StorageMatrixFree, Smoother: sm})
		if err != nil {
			t.Fatalf("smoother %v on MF: %v", sm, err)
		}
		x := make([]float64, op.Rows())
		res := krylov.FPCG(op, f, x, mg, 1e-8, 400)
		if !res.Converged {
			t.Fatalf("smoother %v on MF did not converge", sm)
		}
	}
}

// TestMatrixFreeRejectsBadConfig: MF storage requires the Galerkin
// capability and at least one coarse level.
func TestMatrixFreeRejectsBadConfig(t *testing.T) {
	kr, op, _, rs := buildElasticityMF(t, 3)
	if _, err := New(kr, rs, Options{Storage: StorageMatrixFree}); err == nil {
		t.Fatal("MF storage over an assembled CSR should fail")
	}
	if _, err := New(op, nil, Options{Storage: StorageMatrixFree}); err == nil {
		t.Fatal("MF storage with no coarse levels should fail")
	}
}
