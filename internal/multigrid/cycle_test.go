package multigrid

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"prometheus/internal/aggregation"
	"prometheus/internal/core"
	"prometheus/internal/fem"
	"prometheus/internal/krylov"
	"prometheus/internal/material"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

// countingOp counts the operator applications the cycle and the smoother
// make on one level, and the flops those kernels did.
type countingOp struct {
	sparse.Operator
	mulvecs, residuals int
	flops              int64
}

func (c *countingOp) MulVec(x, y []float64) {
	c.mulvecs++
	c.flops += c.MulVecFlops()
	c.Operator.MulVec(x, y)
}

func (c *countingOp) Residual(b, x, r []float64) {
	c.residuals++
	c.flops += c.MulVecFlops() + int64(c.Rows())
	c.Operator.Residual(b, x, r)
}

// visits returns how often one application of the cycle visits smoothed
// level l, and how many of those visits start from a zero guess.
func visits(c CycleKind, l int) (total, fromZero int) {
	switch c {
	case FMG:
		// The V-cycles started on levels 0..l each pass through once; only
		// the one started here begins from the prolonged coarse solution.
		return l + 1, l
	default:
		return 1, 1
	}
}

func levelStorage(mg *MG) []string {
	out := make([]string, len(mg.Levels))
	for l, lvl := range mg.Levels {
		out[l] = storageName(lvl.A)
	}
	return out
}

// TestCycleOperatorApplications pins what one preconditioner application
// costs in operator products: a visit of a CG-smoothed level applies A four
// times — residual and A·p before the coarse correction, the same after —
// and three times when it starts from a zero guess, because the residual of
// a zero guess is b and the residual the cycle restricts is the smoother's
// own. It also closes the flop books: the Flops() delta of an Apply is the
// flops of the kernels that ran, nothing more. Both kernels are covered:
// the hierarchy New blocks and the all-scalar reference.
func TestCycleOperatorApplications(t *testing.T) {
	k, f, rs := buildElasticity(t, 6, core.Options{MinCoarse: 10})
	if len(rs) != 3 {
		t.Fatalf("fixture has %d levels, want 4", len(rs)+1)
	}
	for _, cyc := range []CycleKind{FMG, VCycle} {
		for _, build := range []struct {
			new     builder
			storage []string
		}{
			{New, []string{"bsr", "bsr", "bsr", "bsr"}},
			{newScalar, []string{"csr", "csr", "csr", "csr"}},
		} {
			cycleOperatorApplications(t, cyc, build.new, build.storage, k, f, rs)
		}
	}
}

// cycleOperatorApplications is TestCycleOperatorApplications for one cycle
// on the hierarchy build makes, whose levels are stored as storage says.
func cycleOperatorApplications(t *testing.T, cyc CycleKind, build builder, storage []string, k *sparse.CSR, f []float64, rs []*sparse.CSR) {
	t.Helper()
	mg, err := build(k, rs, Options{Cycle: cyc})
	if err != nil {
		t.Fatal(err)
	}
	if got := levelStorage(mg); !slices.Equal(got, storage) {
		t.Fatalf("level storage %v, want %v", got, storage)
	}
	z := make([]float64, k.NRows)
	// AllocsPerRun counts the process's mallocs, a collection cycle's own
	// included. Its GOMAXPROCS(1) waits for a running cycle to end, but
	// returns at once when GOMAXPROCS is 1 already (CI's one-core step),
	// and the cycle the setup above started then runs on inside the
	// measurement: finish it first. Apply allocates nothing, so none
	// starts after it.
	runtime.GC()
	if a := testing.AllocsPerRun(5, func() { mg.Apply(f, z) }); a != 0 {
		t.Errorf("cycle %v: Apply allocates %v times per run on a %v hierarchy", cyc, a, storage)
	}

	n := len(mg.Levels)
	ops := make([]*countingOp, n-1)
	inner := make([]int64, n-1) // flops of one block-Jacobi application
	for l, lvl := range mg.Levels[:n-1] {
		cg := lvl.Smoother
		f0 := cg.Inner.Flops()
		cg.Inner.Apply(lvl.b, lvl.res)
		inner[l] = cg.Inner.Flops() - f0
		ops[l] = &countingOp{Operator: lvl.A}
		lvl.A, cg.A = ops[l], ops[l]
	}
	flops0 := mg.Flops()
	mg.Apply(f, z)
	got := mg.Flops() - flops0

	var want int64
	fmgChain := 0 // FMG's own restriction of b and prolongation of x
	if cyc == FMG {
		fmgChain = 1
	}
	for l, op := range ops {
		total, fromZero := visits(cyc, l)
		if wantMV, wantRes := 2*total, 2*total-fromZero; op.mulvecs != wantMV || op.residuals != wantRes {
			t.Errorf("cycle %v level %d: %d MulVec + %d Residual over %d visits (%d from zero), want %d + %d",
				cyc, l, op.mulvecs, op.residuals, total, fromZero, wantMV, wantRes)
		}
		dim := int64(op.Rows())
		// Per CG step beside its products: the block solves, the r·z and
		// p·Ap dots and the two axpys. Per visit: two steps and the
		// correction axpy, and one trip down to the next level and back.
		step := inner[l] + 2*dim + 2*dim + 4*dim
		next := mg.Levels[l+1]
		transfer := next.R.MulVecFlops() + next.P.MulVecFlops()
		want += op.flops + int64(total)*(2*step+2*dim+transfer) + int64(fmgChain)*transfer
	}
	// The coarsest level is solved once per visit of the level above it,
	// and once more by FMG itself.
	coarseVisits, _ := visits(cyc, n-2)
	want += int64(coarseVisits+fmgChain) * mg.Levels[n-1].Direct.SolveFlops()
	if got != want {
		t.Errorf("cycle %v: Flops() grew by %d over one Apply, the kernels that ran did %d", cyc, got, want)
	}
}

// buildSpheres assembles the reduced first tangent of the 3k-dof spheres
// model problem and its restriction chain. The octant's symmetry planes fix
// single components, so the fine operator is not node-aligned, and the
// constraints leave coarse dofs without fine support for the hierarchy to
// pin.
func buildSpheres(t *testing.T) (*sparse.CSR, []float64, []*sparse.CSR) {
	return buildSpheresConfig(t, problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}, false)
}

// buildSpheresConfig is buildSpheres for the spheres cfg describes, with
// the smoothed-aggregation restriction chain instead when aggregate is set.
func buildSpheresConfig(t *testing.T, cfg problems.SpheresConfig, aggregate bool) (*sparse.CSR, []float64, []*sparse.CSR) {
	t.Helper()
	s := problems.NewSpheresConfig(cfg)
	ndof := s.Mesh.NumDOF()
	k, _, err := fem.NewProblem(s.Mesh, s.Models, true).AssembleTangent(make([]float64, ndof))
	if err != nil {
		t.Fatal(err)
	}
	dm := s.Cons.NewDofMap(ndof)
	kr, fr := s.Cons.Reduce(k, make([]float64, ndof), dm)
	if aggregate {
		rs, err := aggregation.BuildRestrictions(kr, aggregation.RigidBodyModes(s.Mesh.Coords, dm.Full2Red, dm.NumFree()), aggregation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return kr, fr, rs
	}
	h, err := core.Coarsen(s.Mesh, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return kr, fr, restrictionChain(h, dm)
}

// solveOutcome is everything two hierarchies that differ only in their
// kernels must agree on, bit for bit.
type solveOutcome struct {
	iterations int
	residuals  []uint64
	solution   []uint64
	partitions [][][]int
	storage    []string
	nnz        []int
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// builder makes a hierarchy: New, or newScalar for the all-scalar
// reference.
type builder func(sparse.Operator, []*sparse.CSR, Options) (*MG, error)

func solveOutcomeOf(t *testing.T, build builder, fine sparse.Operator, f []float64, rs []*sparse.CSR, opts Options) solveOutcome {
	t.Helper()
	mg, err := build(fine, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := solveOutcome{storage: levelStorage(mg)}
	for _, lvl := range mg.Levels {
		out.nnz = append(out.nnz, lvl.A.NNZ())
		if lvl.Smoother != nil {
			out.partitions = append(out.partitions, lvl.Smoother.Inner.Blocks())
		}
	}
	x := make([]float64, fine.Rows())
	res := krylov.FPCG(fine, f, x, mg, 1e-8, 400)
	if !res.Converged {
		t.Fatalf("%+v on %v did not converge", opts, out.storage)
	}
	out.iterations, out.residuals, out.solution = res.Iterations, bitsOf(res.Residuals), bitsOf(x)
	return out
}

// TestBlockingIsAKernelChoice: giving a level the block kernel changes
// how its operator is applied and nothing that is computed. New and the
// all-scalar reference agree in solution bits, iteration count, residual
// history and every level's smoother partition, on every shape of the
// storage rule: a CSR fine operator that blocks with no fill (blocked),
// one with three single components fixed that blocks only with fill (kept
// as handed in), a CSR-fine hierarchy whose Galerkin levels have pinned
// rows (so blocking them adds fill), and BSR-fine hierarchies with a
// pinned Galerkin level, reached through the scalar product (a restriction
// that is not node-conforming) and through the blocked one (a whole node
// pinned).
func TestBlockingIsAKernelChoice(t *testing.T) {
	sk, sf, srs := buildSpheres(t)
	ck, cf, crs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	// One component fixed on each of three top vertices: x, y and z.
	pk, pf, prs := buildCube(t, 5, core.Options{MinCoarse: 10}, []int{0, 1, 2})
	if bt := sparse.PlanBlock(pk, 3); pk.NRows%3 != 0 || bt == nil || bt.NNZ() == pk.NNZ() {
		t.Fatal("the cube with three components fixed is meant to block, and only with fill")
	}
	rowRS := append([]*sparse.CSR{emptyRowRestriction(crs[0])}, crs[1:]...)
	nodeRS := append([]*sparse.CSR{zeroNodeRestriction(crs[0])}, crs[1:]...)
	for _, tc := range []struct {
		name    string
		fine    sparse.Operator
		f       []float64
		rs      []*sparse.CSR
		storage []string
		fill    bool // some blocked level stores entries the scalar one does not
	}{
		{"cube, CSR fine that blocks with no fill", ck, cf, crs, []string{"bsr", "bsr", "bsr"}, false},
		{"cube with three components fixed, CSR fine that blocks only with fill", pk, pf, prs, []string{"csr", "bsr", "csr"}, false},
		{"spheres, CSR fine", sk, sf, srs, []string{"csr", "bsr", "bsr", "csr"}, true},
		{"cube with a repaired level, BSR fine", sparse.AutoBlock(ck, 3), cf, rowRS, []string{"bsr", "bsr", "csr"}, true},
		{"cube with a pinned node, BSR fine", sparse.AutoBlock(ck, 3), cf, nodeRS, []string{"bsr", "bsr", "csr"}, true},
	} {
		scalar := solveOutcomeOf(t, newScalar, tc.fine, tc.f, tc.rs, Options{})
		auto := solveOutcomeOf(t, New, tc.fine, tc.f, tc.rs, Options{})
		if !slices.Equal(auto.storage, tc.storage) {
			t.Errorf("%s: level storage %v, want %v", tc.name, auto.storage, tc.storage)
		}
		for _, s := range scalar.storage {
			if s != "csr" {
				t.Errorf("%s: the scalar reference built levels %v", tc.name, scalar.storage)
			}
		}
		if !slices.Equal(auto.nnz, scalar.nnz) != tc.fill {
			t.Errorf("%s: stored entries %v blocked against %v scalar; the fixture is meant to block with fill: %v", tc.name, auto.nnz, scalar.nnz, tc.fill)
		}
		if auto.iterations != scalar.iterations || !slices.Equal(auto.residuals, scalar.residuals) {
			t.Errorf("%s: %d iterations blocked against %d scalar, or the residual histories differ in bits", tc.name, auto.iterations, scalar.iterations)
		}
		if !slices.Equal(auto.solution, scalar.solution) {
			t.Errorf("%s: solutions differ in bits", tc.name)
		}
		if len(auto.partitions) != len(tc.storage)-1 || !slices.EqualFunc(auto.partitions, scalar.partitions, func(a, b [][]int) bool {
			return slices.EqualFunc(a, b, slices.Equal[[]int])
		}) {
			t.Errorf("%s: smoother partitions differ between the blocked and the scalar hierarchy", tc.name)
		}
	}
}

// TestSmootherIterationsPinned: the smoother takes the iterations it took
// when it was one of six selectable kinds, on the fine level New blocks
// (handed in as CSR or as BSR) with the Galerkin levels below applied in
// blocks, and on the all-scalar reference.
func TestSmootherIterationsPinned(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	for _, tc := range []struct {
		name    string
		build   builder
		fine    sparse.Operator
		storage string
	}{
		{"CSR handed in", New, k, "bsr"},
		{"BSR handed in", New, sparse.AutoBlock(k, 3), "bsr"},
		{"scalar reference", newScalar, k, "csr"},
	} {
		mg, err := tc.build(tc.fine, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := levelStorage(mg); got[0] != tc.storage || got[1] != tc.storage {
			t.Errorf("%s: levels %v, want the first two %s", tc.name, got, tc.storage)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(tc.fine, f, x, mg, 1e-8, 400)
		if !res.Converged || res.Iterations != 10 {
			t.Errorf("%s: converged=%v in %d iterations, want 10", tc.name, res.Converged, res.Iterations)
		}
	}
}

// TestAggregationBlockingIsAKernelChoice: smoothed aggregation on the
// node-aligned cube gets a BSR fine level, blocked from its CSR with no
// fill. Its restrictions are not node-conforming, so that level's Galerkin
// product is formed in scalar rows, and it is blocked only where that
// stores no entry the scalar product does not. Under every cycle the
// hierarchy then solves bit for bit as the all-scalar reference: with the
// block fill, the coarsest level of this cube had another pattern than the
// scalar chain's, and so another factorization ordering.
func TestAggregationBlockingIsAKernelChoice(t *testing.T) {
	c := problems.NewCube(5, material.LinearElastic{E: 1, Nu: 0.3}, -0.001)
	k, _, err := fem.NewProblem(c.Mesh, c.Models, false).AssembleTangent(make([]float64, c.Mesh.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	dm := c.Cons.NewDofMap(c.Mesh.NumDOF())
	kr, fr := c.Cons.Reduce(k, c.Load, dm)
	rs, err := aggregation.BuildRestrictions(kr, aggregation.RigidBodyModes(c.Mesh.Coords, dm.Full2Red, dm.NumFree()), aggregation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cyc := range []CycleKind{FMG, VCycle} {
		opts := Options{Cycle: cyc}
		scalar := solveOutcomeOf(t, newScalar, kr, fr, rs, opts)
		blocked := solveOutcomeOf(t, New, kr, fr, rs, opts)
		if blocked.storage[0] != "bsr" {
			t.Fatalf("cycle %v: levels %v, want a blocked fine level", cyc, blocked.storage)
		}
		if !slices.Equal(blocked.nnz, scalar.nnz) {
			t.Errorf("cycle %v: stored entries %v blocked against %v scalar", cyc, blocked.nnz, scalar.nnz)
		}
		if blocked.iterations != scalar.iterations || !slices.Equal(blocked.residuals, scalar.residuals) || !slices.Equal(blocked.solution, scalar.solution) {
			t.Errorf("cycle %v: %d iterations blocked against %d scalar, or the residual histories or solutions differ in bits", cyc, blocked.iterations, scalar.iterations)
		}
	}
}
