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
	case WCycle:
		// Twice per visit of the level above, the first of each pair from
		// the guess the cycle has just zeroed.
		if l == 0 {
			return 1, 1
		}
		return 1 << l, 1 << (l - 1)
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
// flops of the kernels that ran, nothing more.
func TestCycleOperatorApplications(t *testing.T) {
	k, f, rs := buildElasticity(t, 6, core.Options{MinCoarse: 10})
	if len(rs) != 3 {
		t.Fatalf("fixture has %d levels, want 4", len(rs)+1)
	}
	for _, cyc := range []CycleKind{FMG, VCycle, WCycle} {
		mg, err := New(k, rs, Options{Cycle: cyc})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := levelStorage(mg), []string{"csr", "bsr", "bsr", "csr"}; !slices.Equal(got, want) {
			t.Fatalf("level storage %v, want %v", got, want)
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
			t.Errorf("cycle %v: Apply allocates %v times per run on a CSR-fine/BSR-coarse hierarchy", cyc, a)
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
}

// buildSpheres assembles the reduced first tangent of the 3k-dof spheres
// model problem and its restriction chain. The octant's symmetry planes fix
// single components, so the fine operator is not node-aligned, and the
// constraints leave coarse dofs without fine support for fixEmptyRows to
// pin.
func buildSpheres(t *testing.T) (*sparse.CSR, []float64, []*sparse.CSR) {
	t.Helper()
	s := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2})
	ndof := s.Mesh.NumDOF()
	k, _, err := fem.NewProblem(s.Mesh, s.Models, true).AssembleTangent(make([]float64, ndof))
	if err != nil {
		t.Fatal(err)
	}
	dm := s.Cons.NewDofMap(ndof)
	kr, fr := s.Cons.Reduce(k, make([]float64, ndof), dm)
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

func solveOutcomeOf(t *testing.T, fine sparse.Operator, f []float64, rs []*sparse.CSR, opts Options) solveOutcome {
	t.Helper()
	mg, err := New(fine, rs, opts)
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

// TestBlockingIsAKernelChoice: giving a Galerkin level the block kernel
// changes how its operator is applied and nothing that is computed.
// StorageAuto and StorageCSR agree in solution bits, iteration count,
// residual history and every level's smoother partition, on the two shapes
// where the applied operator and the setup view differ: a CSR-fine
// hierarchy whose Galerkin levels have pinned rows (so blocking them adds
// fill), and BSR-fine hierarchies with a pinned Galerkin level, reached
// through the scalar product (a restriction that is not node-conforming)
// and through the blocked one (a whole node pinned).
func TestBlockingIsAKernelChoice(t *testing.T) {
	sk, sf, srs := buildSpheres(t)
	ck, cf, crs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	rowRS := append([]*sparse.CSR{emptyRowRestriction(crs[0])}, crs[1:]...)
	nodeRS := append([]*sparse.CSR{zeroNodeRestriction(crs[0])}, crs[1:]...)
	for _, tc := range []struct {
		name    string
		fine    sparse.Operator
		f       []float64
		rs      []*sparse.CSR
		storage []string
	}{
		{"spheres, CSR fine", sk, sf, srs, []string{"csr", "bsr", "bsr", "csr"}},
		{"cube with a repaired level, BSR fine", sparse.AutoBlock(ck, 3), cf, rowRS, []string{"bsr", "bsr", "csr"}},
		{"cube with a pinned node, BSR fine", sparse.AutoBlock(ck, 3), cf, nodeRS, []string{"bsr", "bsr", "csr"}},
	} {
		scalar := solveOutcomeOf(t, tc.fine, tc.f, tc.rs, Options{Storage: StorageCSR})
		auto := solveOutcomeOf(t, tc.fine, tc.f, tc.rs, Options{})
		if !slices.Equal(auto.storage, tc.storage) {
			t.Errorf("%s: level storage %v, want %v", tc.name, auto.storage, tc.storage)
		}
		for _, s := range scalar.storage {
			if s != "csr" {
				t.Errorf("%s: StorageCSR built levels %v", tc.name, scalar.storage)
			}
		}
		if slices.Equal(auto.nnz, scalar.nnz) {
			t.Errorf("%s: stored entries %v blocked against %v scalar; the fixture is meant to block with fill", tc.name, auto.nnz, scalar.nnz)
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
// when it was one of six selectable kinds, under a scalar and a blocked
// fine level, with the Galerkin levels below applied in blocks either way.
func TestSmootherIterationsPinned(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	for _, fine := range []sparse.Operator{k, sparse.AutoBlock(k, 3)} {
		mg, err := New(fine, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := storageName(mg.Levels[1].A); got != "bsr" {
			t.Errorf("under a %s fine level: level 1 is %s, want bsr", storageName(fine), got)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(fine, f, x, mg, 1e-8, 400)
		if !res.Converged || res.Iterations != 10 {
			t.Errorf("under a %s fine level: converged=%v in %d iterations, want 10",
				storageName(fine), res.Converged, res.Iterations)
		}
	}
}

// TestAggregationBlockingIsAKernelChoice: a smoothed-aggregation
// restriction is not node-conforming, so a BSR fine level's Galerkin
// product is formed in scalar rows, and it is blocked only where that
// stores no entry the scalar product does not. StorageBSR then solves bit
// for bit as StorageCSR: with the block fill, the coarsest level of this
// cube had another pattern than the scalar chain's, and so another
// factorization ordering.
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
	scalar := solveOutcomeOf(t, kr, fr, rs, Options{Storage: StorageCSR})
	blocked := solveOutcomeOf(t, kr, fr, rs, Options{Storage: StorageBSR})
	if blocked.storage[0] != "bsr" {
		t.Fatalf("StorageBSR built levels %v", blocked.storage)
	}
	if !slices.Equal(blocked.nnz, scalar.nnz) {
		t.Errorf("stored entries %v blocked against %v scalar", blocked.nnz, scalar.nnz)
	}
	if blocked.iterations != scalar.iterations || !slices.Equal(blocked.residuals, scalar.residuals) || !slices.Equal(blocked.solution, scalar.solution) {
		t.Errorf("%d iterations blocked against %d scalar, or the residual histories or solutions differ in bits", blocked.iterations, scalar.iterations)
	}
}
