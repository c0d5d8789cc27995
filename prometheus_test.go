package prometheus

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// buildCube sets up the quickstart problem via the public API only.
func buildCube(t *testing.T, n int) (*Mesh, *Constraints, []float64) {
	t.Helper()
	m := NewStructuredHexMesh(n, n, n, 1, 1, 1, nil)
	cons := NewConstraints()
	f := make([]float64, m.NumDOF())
	for v, p := range m.Coords {
		if p.Z == 0 {
			cons.FixVert(v, 0, 0, 0)
		}
		if p.Z == 1 {
			f[3*v+2] = -0.001
		}
	}
	return m, cons, f
}

func TestPublicAPISolveLinear(t *testing.T) {
	m, cons, f := buildCube(t, 5)
	solver, err := NewSolver(m, cons, Options{RTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if solver.NumLevels() < 2 {
		t.Fatal("no coarsening")
	}
	p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	u, res, err := solver.SolveLinear(k, f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations == 0 || res.Iterations > 100 {
		t.Fatalf("result = %+v", res)
	}
	// The top face moves down; the bottom stays clamped.
	for v, pt := range m.Coords {
		if pt.Z == 0 {
			if u[3*v] != 0 || u[3*v+1] != 0 || u[3*v+2] != 0 {
				t.Fatal("clamped vertex moved")
			}
		}
		if pt.X == 0.4 && pt.Y == 0.4 && pt.Z == 1 {
			if u[3*v+2] >= 0 {
				t.Fatal("top should move down")
			}
		}
	}
	if res.SolveFlops <= 0 || res.SetupFlops <= 0 || res.Levels < 2 {
		t.Fatalf("instrumentation: %+v", res)
	}
	counts, ratios := solver.VertexReduction()
	if len(counts) != solver.NumLevels() || len(ratios) != solver.NumLevels()-1 {
		t.Fatal("VertexReduction shape")
	}
}

// TestPreconditionerAutoBlocks checks the storage decision at the public
// surface: the reduced tangent of a node-aligned constraint set (FixVert
// only) blocks with no fill and is applied as 3x3 BSR, while component-wise
// constraints keep CSR.
func TestPreconditionerAutoBlocks(t *testing.T) {
	m, cons, f := buildCube(t, 4)
	solver, err := NewSolver(m, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	kred, _ := cons.Reduce(k, f, solver.dofMap)
	mg, err := solver.Preconditioner(kred)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mg.Levels[0].A.(*BSR); !ok {
		t.Fatalf("node-aligned problem: fine level is %T, want *BSR", mg.Levels[0].A)
	}

	// Fix a single component of one free vertex: no longer node-aligned.
	cons2 := NewConstraints()
	for d, v := range cons.Fixed {
		cons2.FixDof(d, v)
	}
	var loose int
	for v, pt := range m.Coords {
		if pt.Z != 0 {
			loose = v
			break
		}
	}
	cons2.FixDof(3*loose, 0)
	solver2, err := NewSolver(m, cons2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kred2, _ := cons2.Reduce(k, f, solver2.dofMap)
	mg2, err := solver2.Preconditioner(kred2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mg2.Levels[0].A.(*CSR); !ok {
		t.Fatalf("component-constrained problem: fine level is %T, want *CSR", mg2.Levels[0].A)
	}
}

// TestSolverLinearOperator: LinearOperator gives ReduceSystem's matrix,
// and its load map reduces s·f bit for bit as ReduceSystem does for the
// vector s·f, under prescribed values that are not zero.
func TestSolverLinearOperator(t *testing.T) {
	m, cons, f := buildCube(t, 3)
	for d := range cons.Fixed {
		cons.Fixed[d] = 1e-3 * float64(d%4)
	}
	p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	solver, err := NewSolver(m, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, loads, err := solver.LinearOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	kred, _ := solver.ReduceSystem(k, f)
	if kc, ok := op.(*CSR); !ok || !slices.Equal(kc.ColIdx, kred.ColIdx) || !same(kc.Val, kred.Val) {
		t.Fatalf("operator %T is not ReduceSystem's matrix", op)
	}
	got := make([]float64, kred.Rows())
	sf := make([]float64, len(f))
	for _, s := range []float64{2, -1} {
		for i, v := range f {
			sf[i] = s * v
		}
		_, want := solver.ReduceSystem(k, sf)
		if loads.Apply(got, f, s); !same(got, want) {
			t.Fatalf("scale %g: the load map differs from the reduction of s·f", s)
		}
	}
}

// TestMatrixFreeSystem: the right-hand side MatrixFreeSystem returns is
// ReduceSystem's bit for bit under zero prescribed values. Under nonzero
// ones it agrees to a few ULPs: ReduceSystem subtracts the assembled
// entries of K_fc·u_c one by one, the operator its element sums at once.
func TestMatrixFreeSystem(t *testing.T) {
	m, cons, f := buildCube(t, 3)
	p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	for _, prescribed := range []bool{false, true} {
		if prescribed {
			for d := range cons.Fixed {
				cons.Fixed[d] = 1e-3 * float64(d%4)
			}
		}
		solver, err := NewSolver(m, cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		op, got, err := solver.MatrixFreeSystem(p, f)
		if err != nil {
			t.Fatal(err)
		}
		kred, want := solver.ReduceSystem(k, f)
		if op.Rows() != kred.Rows() {
			t.Fatalf("operator has %d rows, ReduceSystem %d", op.Rows(), kred.Rows())
		}
		tol := 0.0
		for _, v := range want {
			tol = max(tol, 1e-12*math.Abs(v))
		}
		for i := range want {
			same := math.Float64bits(got[i]) == math.Float64bits(want[i])
			if !same && (!prescribed || math.Abs(got[i]-want[i]) > tol) {
				t.Fatalf("prescribed %v, dof %d: right-hand side %v, ReduceSystem %v", prescribed, i, got[i], want[i])
			}
		}
	}
}

// unassembled hides an operator's storage type behind the interface.
type unassembled struct{ Operator }

// TestPreconditionerRejectsUnassembledOperator: an operator that is
// neither *CSR nor *BSR gets the typed error from Preconditioner, before
// any restriction or plan reads its pattern, on either hierarchy.
func TestPreconditionerRejectsUnassembledOperator(t *testing.T) {
	m, cons, f := buildCube(t, 3)
	k, _, err := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false).AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []HierarchyKind{GeometricMIS, SmoothedAggregation} {
		solver, err := NewSolver(m, cons, Options{Hierarchy: h})
		if err != nil {
			t.Fatal(err)
		}
		kred, _ := solver.ReduceSystem(k, f)
		_, err = solver.Preconditioner(unassembled{kred})
		if err == nil || !strings.Contains(err.Error(), "must be *sparse.CSR or *sparse.BSR, got prometheus.unassembled") {
			t.Fatalf("hierarchy %v: error %v, want the typed fine-operator error", h, err)
		}
	}
}

func TestPublicAPINonlinear(t *testing.T) {
	m, cons, _ := buildCube(t, 3)
	// Displacement-driven crush of a plastic cube.
	for v, pt := range m.Coords {
		if pt.Z == 1 {
			cons.FixDof(3*v+2, -0.02)
		}
	}
	solver, err := NewSolver(m, cons, Options{Coarsen: CoarsenOptions{MinCoarse: 20}})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(m, []Model{J2Plasticity{E: 1, Nu: 0.3, SigmaY: 1e-3, H: 0.002}}, false)
	u, stats, err := solver.SolveNonlinear(p, NewtonConfig{Steps: 2, MaxNewton: 15}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Steps) != 2 || stats.TotalNewton < 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// 2% crush with 0.1% yield strain: everything yields.
	if stats.Steps[1].PlasticFrac < 0.5 {
		t.Fatalf("plastic fraction = %v", stats.Steps[1].PlasticFrac)
	}
	// Prescribed displacement honoured.
	for v, pt := range m.Coords {
		if pt.Z == 1 && math.Abs(u[3*v+2]+0.02) > 1e-12 {
			t.Fatal("prescribed crush not applied")
		}
	}
}

func TestTableOneMaterials(t *testing.T) {
	db := TableOneMaterials()
	if len(db) != 2 {
		t.Fatal("Table 1 has two materials")
	}
}

func TestSolveLinearReportsNonConvergence(t *testing.T) {
	m, cons, f := buildCube(t, 4)
	solver, err := NewSolver(m, cons, Options{RTol: 1e-30, MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, _ := p.AssembleTangent(make([]float64, m.NumDOF()))
	_, res, err := solver.SolveLinear(k, f)
	if err == nil || res.Converged {
		t.Fatal("expected non-convergence error")
	}
}

func TestSmoothedAggregationHierarchy(t *testing.T) {
	m, cons, f := buildCube(t, 5)
	solver, err := NewSolver(m, cons, Options{
		Hierarchy: SmoothedAggregation, RTol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c, r := solver.VertexReduction(); c != nil || r != nil {
		t.Fatal("SA hierarchy has no mesh statistics")
	}
	p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	u, res, err := solver.SolveLinear(k, f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 60 {
		t.Fatalf("SA result = %+v", res)
	}
	if solver.NumLevels() < 2 {
		t.Fatal("no SA levels built")
	}
	// Cross-check against the geometric hierarchy's solution.
	geo, err := NewSolver(m, cons, Options{RTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	ug, _, err := geo.SolveLinear(k, f)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	norm := 0.0
	for i := range u {
		d := u[i] - ug[i]
		diff += d * d
		norm += ug[i] * ug[i]
	}
	if diff > 1e-10*norm {
		t.Fatalf("SA and geometric solutions disagree: %v vs %v", diff, norm)
	}
}

func TestPublicAPIHex20MultigridSolve(t *testing.T) {
	// End-to-end: quadratic elements through the whole pipeline — MIS
	// coarsening on the 20-node node graph, Delaunay remeshing,
	// tetrahedral restriction of all (corner and midside) nodes, Galerkin
	// hierarchy, MG-preconditioned CG.
	m := NewStructuredHex20Mesh(4, 4, 4, 1, 1, 1, nil)
	cons := NewConstraints()
	f := make([]float64, m.NumDOF())
	for v, p := range m.Coords {
		if p.Z == 0 {
			cons.FixVert(v, 0, 0, 0)
		}
		if p.Z == 1 {
			f[3*v+2] = -0.0005
		}
	}
	solver, err := NewSolver(m, cons, Options{RTol: 1e-8, Coarsen: CoarsenOptions{MinCoarse: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if solver.NumLevels() < 2 {
		t.Fatal("Hex20 mesh did not coarsen")
	}
	p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	u, res, err := solver.SolveLinear(k, f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 120 {
		t.Fatalf("Hex20 MG solve: %+v", res)
	}
	// Downward deflection at the top.
	for v, pt := range m.Coords {
		if pt.X == 0.5 && pt.Y == 0.5 && pt.Z == 1 {
			if u[3*v+2] >= 0 {
				t.Fatal("top should deflect down")
			}
		}
	}
	t.Logf("Hex20: %d dof, %d levels, %d iterations", m.NumDOF(), res.Levels, res.Iterations)
}

func TestPublicAPITetrahedralFineMesh(t *testing.T) {
	// The paper's pipeline takes any unstructured mesh: run a genuinely
	// simplicial, distorted fine grid end to end.
	hex := NewStructuredHexMesh(5, 5, 5, 1, 1, 1, nil)
	// Distort the interior so nothing is axis-aligned.
	rng := rand.New(rand.NewSource(77))
	for v, p := range hex.Coords {
		interior := p.X > 0 && p.X < 1 && p.Y > 0 && p.Y < 1 && p.Z > 0 && p.Z < 1
		if interior {
			hex.Coords[v] = p.Add(Vec3{
				X: (rng.Float64() - 0.5) * 0.08,
				Y: (rng.Float64() - 0.5) * 0.08,
				Z: (rng.Float64() - 0.5) * 0.08,
			})
		}
	}
	m := HexMeshToTets(hex)
	cons := NewConstraints()
	f := make([]float64, m.NumDOF())
	for v, p := range m.Coords {
		if p.Z == 0 {
			cons.FixVert(v, 0, 0, 0)
		}
		if p.Z == 1 {
			f[3*v+2] = -0.001
		}
	}
	solver, err := NewSolver(m, cons, Options{RTol: 1e-8, Coarsen: CoarsenOptions{MinCoarse: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if solver.NumLevels() < 2 {
		t.Fatal("tet mesh did not coarsen")
	}
	p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := solver.SolveLinear(k, f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 120 {
		t.Fatalf("tet pipeline: %+v", res)
	}
	t.Logf("tet fine mesh: %d dof, %d levels, %d its", m.NumDOF(), res.Levels, res.Iterations)
}
