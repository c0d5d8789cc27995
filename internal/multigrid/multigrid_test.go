package multigrid

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"prometheus/internal/core"
	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/krylov"
	"prometheus/internal/la"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

// buildElasticity assembles the reduced system for an n³ cube with the
// bottom face fixed and a downward surface load on top, plus the compressed
// restriction chain.
func buildElasticity(t *testing.T, n int, coarsenOpts core.Options) (*sparse.CSR, []float64, []*sparse.CSR) {
	return buildCube(t, n, coarsenOpts, nil)
}

// buildCube is buildElasticity with, for each entry of topComps, that
// component of the next loaded vertex on the top face fixed as well.
func buildCube(t *testing.T, n int, coarsenOpts core.Options, topComps []int) (*sparse.CSR, []float64, []*sparse.CSR) {
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
	top := m.VertsWhere(func(q geom.Vec3) bool { return q.Z == 1 })
	for i, comp := range topComps {
		c.FixDof(3*top[i]+comp, 0)
	}
	f := make([]float64, m.NumDOF())
	for _, v := range top {
		f[3*v+2] = -0.001
	}
	dm := c.NewDofMap(m.NumDOF())
	kr, lm := c.Reduce(k, dm)
	fr := make([]float64, dm.NumFree())
	lm.Apply(fr, f, 1)

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
	mg, _, err := Build(nil, k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	cycles, rel := mg.stationary(f, x, 1e-10, 100)
	if rel > 1e-10 {
		t.Fatalf("MG stalled: rel = %v after %d cycles", rel, cycles)
	}
	// Compare with the dense Cholesky solution.
	ch, err := la.NewCholesky(denseOf(k))
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

// denseOf returns a's entries as a dense matrix.
func denseOf(a *sparse.CSR) *la.Dense {
	d := la.NewDense(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for p, j := range cols {
			d.Set(i, j, vals[p])
		}
	}
	return d
}

func TestPCGWithMGBeatsPlainCG(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 30})
	mg, _, err := Build(nil, k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	pcg := krylov.FPCG(k, f, x, mg, 1e-8, 200)
	if !pcg.Converged {
		t.Fatalf("MG-PCG did not converge in %d its", pcg.Iterations)
	}
	x2 := make([]float64, k.NRows)
	plain := krylov.FPCG(k, f, x2, nil, 1e-8, 20000)
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
		mg, _, err = Build(nil, k, rs, Options{})
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
		mg, _, err := Build(nil, k, rs, Options{Cycle: cyc})
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

func TestOperatorComplexityModest(t *testing.T) {
	k, _, rs := buildElasticity(t, 5, core.Options{MinCoarse: 30})
	mg, _, err := Build(nil, k, rs, Options{})
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
	mg, _, err := Build(nil, k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range mg.Levels {
		if !sparse.OpSymmetric(l.A, 1e-8) {
			t.Fatalf("level %d operator not symmetric", li)
		}
	}
}

// TestStorageParity pins the central refactor invariant: switching the
// hierarchy from scalar CSR to node-block BSR changes only the storage
// layout, never the arithmetic. Under every cycle, Galerkin products,
// smoother sweeps and the Krylov iteration must produce bitwise-identical
// solutions and residual histories and the exact same iteration count as
// the scalar-kernel reference, which stores the same entries, and every
// level — the fine one handed in as a CSR that blocks with no fill, and
// the coarsest — must actually be blocked.
func TestStorageParity(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	for _, cyc := range []CycleKind{FMG, VCycle} {
		opts := Options{Cycle: cyc}
		scalar := solveOutcomeOf(t, scalarBuild, k, f, rs, opts)
		blocked := solveOutcomeOf(t, Build, k, f, rs, opts)
		if slices.ContainsFunc(blocked.storage, func(s string) bool { return s != "bsr" }) || !slices.Equal(blocked.nnz, scalar.nnz) {
			t.Fatalf("cycle %v: level storage %v storing %v entries, want every level blocked, storing the reference's %v", cyc, blocked.storage, blocked.nnz, scalar.nnz)
		}
		if blocked.iterations != scalar.iterations || !slices.Equal(blocked.residuals, scalar.residuals) {
			t.Fatalf("cycle %v: iteration counts differ: CSR %d vs BSR %d, or the residual histories differ in bits", cyc, scalar.iterations, blocked.iterations)
		}
		if !slices.Equal(blocked.solution, scalar.solution) {
			t.Fatalf("cycle %v: solutions differ in bits", cyc)
		}
	}
}

func TestMGRejectsBadInput(t *testing.T) {
	b := sparse.NewBuilder(4, 3)
	b.Add(0, 0, 1)
	if _, _, err := Build(nil, b.Build(), nil, Options{}); err == nil {
		t.Fatal("non-square should fail")
	}
	id := sparse.Identity(4)
	rbad := sparse.NewBuilder(2, 7)
	rbad.Add(0, 0, 1)
	if _, _, err := Build(nil, id, []*sparse.CSR{rbad.Build()}, Options{}); err == nil {
		t.Fatal("mismatched restriction should fail")
	}
}

// TestNewRejectsBrokenSmootherBlock: a fine operator with a NaN-poisoned
// or an indefinite smoother block fails hierarchy setup with the wrapped
// block error on both storages — it never panics and never hands back a
// smoother that sweeps NaN.
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
		for _, build := range []struct {
			storage string
			new     builder
		}{{"scalar", scalarBuild}, {"blocked", Build}} {
			mg, _, err := build.new(nil, a, rs, Options{})
			if mg != nil || !errors.Is(err, la.ErrNotSPD) || !strings.Contains(err.Error(), "multigrid: block smoother: smooth: block ") {
				t.Fatalf("%s diagonal, %s: mg = %v, err = %v; want the wrapped block error", name, build.storage, mg, err)
			}
		}
	}
}

// coarsestLevel is the coarsest level of one hierarchy the coarse-solve
// tests check.
type coarsestLevel struct {
	name string
	lvl  *Level
}

// coarsestLevels builds the geometric cube and spheres hierarchies, the
// smoothed-aggregation one and the cube's fine operator as a hierarchy of
// one level, checks that each coarsest level is one factored block, and
// returns those levels.
func coarsestLevels(t *testing.T) []coarsestLevel {
	t.Helper()
	ck, _, crs := buildElasticity(t, 8, core.Options{})
	sk, _, srs := buildSpheres(t)
	ak, _, ars := buildSpheresConfig(t, problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}, true)
	var out []coarsestLevel
	for _, tc := range []struct {
		name string
		k    *sparse.CSR
		rs   []*sparse.CSR
	}{
		{"cube", ck, crs},
		{"spheres", sk, srs},
		{"aggregation", ak, ars},
		{"cube, one level", ck, nil},
	} {
		mg, _, err := Build(nil, tc.k, tc.rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lvl := mg.Levels[len(mg.Levels)-1]
		if lvl.Smoother != nil || lvl.Direct == nil || len(lvl.Direct.Blocks()) != 1 {
			t.Fatalf("%s: the coarsest level is not one factored block", tc.name)
		}
		out = append(out, coarsestLevel{tc.name, lvl})
	}
	return out
}

// coarsestRHS returns a smooth right-hand side of length n.
func coarsestRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) + 0.5)
	}
	return b
}

// TestCoarsestSolveIsDirect: on every hierarchy of coarsestLevels the
// coarsest level's one-block factor is a direct solve: it leaves a relative
// residual of at most 1e-10.
func TestCoarsestSolveIsDirect(t *testing.T) {
	for _, c := range coarsestLevels(t) {
		n := c.lvl.A.Rows()
		b, x, r := coarsestRHS(n), make([]float64, n), make([]float64, n)
		c.lvl.Direct.Solve(b, x)
		c.lvl.A.Residual(b, x, r)
		if rel := la.Norm2(r) / la.Norm2(b); rel > 1e-10 {
			t.Errorf("%s: coarsest solve leaves relative residual %g", c.name, rel)
		}
	}
}

// TestCoarsestSolveAliasing: on every hierarchy of coarsestLevels a coarsest
// solve whose output aliases its input gives the bits of a separate output.
func TestCoarsestSolveAliasing(t *testing.T) {
	for _, c := range coarsestLevels(t) {
		n := c.lvl.A.Rows()
		b, x := coarsestRHS(n), make([]float64, n)
		c.lvl.Direct.Solve(b, x)
		aliased := slices.Clone(b)
		c.lvl.Direct.Solve(aliased, aliased)
		if !slices.Equal(bitsOf(aliased), bitsOf(x)) {
			t.Errorf("%s: the aliased coarsest solve differs from the separate one", c.name)
		}
	}
}

// TestCoarsestFactorIgnoresNumbering: reverse Cuthill–McKee makes the
// coarsest factor's size independent of the numbering. The same coarse
// operator, its nodes (or, off node alignment, its dofs) scrambled, stores
// a factor within 3× of the original's. The coarse levels of 84–95 dofs
// store nearly their dense triangles whatever the order; the one-level
// cube (1 944 dofs) stores 0.27 of its triangle, so there an order that
// did not follow the graph would fail the bound.
func TestCoarsestFactorIgnoresNumbering(t *testing.T) {
	for _, c := range coarsestLevels(t) {
		unit := nodeDofs
		if c.lvl.A.Rows()%unit != 0 {
			unit = 1
		}
		scrambled, _, err := Build(nil, scramble(sparse.AsCSR(c.lvl.A), unit), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ratio := float64(scrambled.Levels[0].Direct.FactorLen()) / float64(c.lvl.Direct.FactorLen()); ratio > 3 || ratio < 1.0/3 {
			t.Errorf("%s: scrambled coarse operator stores %.2f× the factor", c.name, ratio)
		}
	}
}

// scramble renumbers a by a random permutation of its units of unit
// consecutive dofs, each unit's dofs kept together and in order.
func scramble(a *sparse.CSR, unit int) *sparse.CSR {
	perm := rand.New(rand.NewSource(3)).Perm(a.NRows / unit)
	to := func(i int) int { return perm[i/unit]*unit + i%unit }
	b := sparse.NewBuilder(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for p, j := range cols {
			b.Add(to(i), to(j), vals[p])
		}
	}
	return b.Build()
}

// freeFreeLaplace returns the 1D Laplacian on n points with free ends,
// exactly singular: the constant vector spans its null space.
func freeFreeLaplace(n int) *sparse.CSR {
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
	return b.Build()
}

// TestCoarsestFactorShiftsASingularOperator: the coarsest factorization
// takes the block smoother's diagonal-shift retries, so an exactly
// singular coarse operator is factored after a shift, and a right-hand
// side orthogonal to its null space comes back solved to the accuracy the
// shift allows.
func TestCoarsestFactorShiftsASingularOperator(t *testing.T) {
	const n = 12
	a := freeFreeLaplace(n)
	mg, _, err := Build(nil, a, nil, Options{})
	if err != nil {
		t.Fatalf("singular coarse operator was not rescued by a shift: %v", err)
	}
	r, z, az := make([]float64, n), make([]float64, n), make([]float64, n)
	r[0], r[n-1] = 1, -1
	mg.Levels[0].Direct.Solve(r, z)
	a.MulVec(z, az)
	for i := range az {
		if math.IsNaN(z[i]) || math.Abs(az[i]-r[i]) > 1e-6 {
			t.Fatalf("shifted coarse solve wrong at %d: z=%v A·z=%v r=%v", i, z[i], az[i], r[i])
		}
	}
}

// TestCoarsestFactorRejectsIndefinite: a clearly indefinite coarse
// operator, which no shift rescues, fails Build with la.ErrNotSPD wrapped
// under the coarsest factorization's prefix.
func TestCoarsestFactorRejectsIndefinite(t *testing.T) {
	a := freeFreeLaplace(12)
	a.Val[a.RowPtr[5]+1] = -1e3 // row 5's diagonal, after its (5, 4) entry
	if a.ColIdx[a.RowPtr[5]+1] != 5 {
		t.Fatal("the poisoned entry is not row 5's diagonal")
	}
	mg, _, err := Build(nil, a, nil, Options{})
	if mg != nil || !errors.Is(err, la.ErrNotSPD) || !strings.HasPrefix(err.Error(), "multigrid: coarsest factorization: ") {
		t.Fatalf("mg = %v, err = %v; want la.ErrNotSPD under the coarsest factorization's prefix", mg, err)
	}
}

func TestStationaryVCycleConverges(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mg, _, err := Build(nil, k, rs, Options{Cycle: VCycle})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	cycles, rel := mg.stationary(f, x, 1e-10, 100)
	if rel > 1e-10 {
		t.Fatalf("V-cycle MG stalled: rel = %v after %d cycles", rel, cycles)
	}
}

func TestLevelWorkAccounting(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mg, _, err := Build(nil, k, rs, Options{})
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
	mg, _, err := Build(nil, k, rs, Options{})
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

// stationary runs stationary multigrid cycles until the relative residual
// drops below rtol (or maxCycles is hit), returning the cycle count and
// final relative residual.
func (mg *MG) stationary(b, x []float64, rtol float64, maxCycles int) (int, float64) {
	a := mg.Levels[0].A
	r := make([]float64, len(b))
	z := make([]float64, len(b))
	bn := la.Norm2(b)
	if bn == 0 {
		bn = 1
	}
	for c := 0; c < maxCycles; c++ {
		a.Residual(b, x, r)
		mg.CycleFlops += a.MulVecFlops() + int64(len(b))
		rn := la.Norm2(r)
		if rn <= rtol*bn {
			return c, rn / bn
		}
		mg.Apply(r, z)
		la.Axpy(1, z, x)
	}
	a.Residual(b, x, r)
	return maxCycles, la.Norm2(r) / bn
}

// fixEmptyRows is the Galerkin operator a pinned with pinList's pins,
// spelled with Builder: pinned rows and columns dropped, a pinned row
// holding the largest diagonal, a returned as is when nothing is pinned.
// Plan.galerkin pins the product in place instead (sparse.Pin), to the
// same values.
func fixEmptyRows(a *sparse.CSR) *sparse.CSR {
	keep, maxd := pinList(a.Diag())
	if keep == nil {
		return a
	}
	b := sparse.NewBuilder(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		if keep[i] < 0 {
			b.Set(i, i, maxd)
			continue
		}
		cols, vals := a.Row(i)
		for k, j := range cols {
			if keep[j] >= 0 {
				b.Add(i, j, vals[k])
			}
		}
	}
	return b.Build()
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

// compressColsBuilder is the reference CompressCols is pinned to: the
// same filter poured entry by entry through sparse.Builder.
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

// emptyRowRestriction returns a copy of r that leaves coarse dof 2 without
// fine support (row 2 emptied) and coarse dof 7 with support of weight zero
// (stored zeros on row 7): the two kinds of row fixEmptyRows pins.
func emptyRowRestriction(r *sparse.CSR) *sparse.CSR {
	rBad := r.Select(identity(r.NRows), identity(r.NCols), r.NCols)
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
	rBad := r.Select(identity(r.NRows), identity(r.NCols), r.NCols)
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

// TestSelectMatchesBuilder pins CompressCols, a caller of sparse.Select,
// to the Builder copy it replaced, bit for bit, on a restriction that
// loses a whole row to the constraints; and the pins Plan.galerkin writes
// in place to the Builder reference fixEmptyRows, value for value, on a
// Galerkin operator with an empty row and a bad row of stored zeros.
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

	// Pins: coarse dof 2 has no fine support at all (an empty row and
	// column of the one-pass product), coarse dof 7 has support of weight
	// zero (stored zeros on row and column 7). The product formed as
	// Plan.galerkin forms it stores both diagonals.
	rBad := emptyRowRestriction(r)
	ac := sparse.Galerkin(rBad, kr)
	if ac.RowNNZ(2) != 0 || ac.RowNNZ(7) == 0 {
		t.Fatal("the fixture lost a case it is meant to cover")
	}
	fixed := fixEmptyRows(ac)
	if fixed == ac || fixed.RowNNZ(2) != 1 || fixed.RowNNZ(7) != 1 || fixed.At(7, 7) <= 0 {
		t.Fatal("bad rows not pinned")
	}
	g := sparse.PlanGalerkin(rBad, rBad.Transpose(), kr, nodeDofs)
	c := g.Fill(g.RA(kr))
	keep, maxd := pinList(c.Diag())
	sparse.Pin(c, keep, maxd)
	inPlace := sparse.AsCSR(c)
	for i := 0; i < ac.NRows; i++ {
		for j := 0; j < ac.NCols; j++ {
			if math.Float64bits(0+inPlace.At(i, j)) != math.Float64bits(fixed.At(i, j)) {
				t.Fatalf("entry (%d,%d): %v pinned in place, %v by the Builder reference", i, j, inPlace.At(i, j), fixed.At(i, j))
			}
		}
	}
}

// unassembled hides an operator's storage type behind the interface.
type unassembled struct{ sparse.Operator }

// TestMatrixFreeRejectsBadConfig: a fine operator that does not store its
// entries (neither *sparse.CSR nor *sparse.BSR, as a matrix-free one is
// not) gets the typed error from Build, with or without a plan to reuse,
// before anything reads its pattern.
func TestMatrixFreeRejectsBadConfig(t *testing.T) {
	kr, _, rs := buildElasticity(t, 3, core.Options{MinCoarse: 30})
	_, plan, err := Build(nil, kr, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan{nil, plan} {
		_, _, err := Build(p, unassembled{kr}, rs, Options{})
		if err == nil || err.Error() != "multigrid: fine operator must be *sparse.CSR or *sparse.BSR, got multigrid.unassembled" {
			t.Fatalf("plan %v: error %v, want the typed fine-operator error", p != nil, err)
		}
	}
}
