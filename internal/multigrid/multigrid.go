// Package multigrid is the Epimetheus layer of the reproduction: it takes
// the fine-grid operator and the restriction operators built by the core
// coarsening and assembles the algebraic hierarchy (A_{l+1} = R·A_l·Rᵀ,
// section 3), provides the V-cycle of Figure 1 and the full multigrid (FMG)
// cycle used in the experiments, the smoother of section 7.2 (one CG step
// preconditioned by block Jacobi, smooth.CGSmoother) on every level above
// the coarsest, a direct solve on the coarsest grid, and the preconditioner
// adapter for flexible CG. All phases count flops for the efficiency
// analysis of section 6.
package multigrid

import (
	"errors"
	"fmt"

	"prometheus/internal/check"
	"prometheus/internal/direct"
	"prometheus/internal/la"
	"prometheus/internal/obs"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

// nodeDofs is the block size of the blocked storage: the three
// displacement dofs of a vertex.
const nodeDofs = 3

// CycleKind selects the multigrid cycle used per preconditioner apply.
type CycleKind int

const (
	// FMG is one full multigrid cycle (the paper's choice, section 7.2).
	FMG CycleKind = iota
	// VCycle is one V-cycle (Figure 1).
	VCycle
)

// Options configures the solver.
type Options struct {
	PreSmooth  int // CG smoothing steps before the coarse correction (default 1, paper)
	PostSmooth int // CG smoothing steps after it (default 1, paper)
	Cycle      CycleKind
	BlockCount func(n int) int // block-Jacobi block rule (default: paper's 6/1000)
}

func (o Options) withDefaults() Options {
	if o.PreSmooth == 0 {
		o.PreSmooth = 1
	}
	if o.PostSmooth == 0 {
		o.PostSmooth = 1
	}
	if o.BlockCount == nil {
		o.BlockCount = smooth.DefaultBlockCount
	}
	return o
}

// Level is one grid of the algebraic hierarchy.
type Level struct {
	// A is the level operator the cycle and the smoother apply — CSR or
	// BSR behind the storage-agnostic interface; the cycles never look
	// behind it. Setup read the scalar matrix of the Galerkin chain, which
	// is gone once New returns.
	A sparse.Operator
	// R restricts residuals from the next finer level to this one; nil on
	// level 0. P = Rᵀ prolongates corrections.
	R, P     *sparse.CSR
	Smoother *smooth.CGSmoother // nil on the coarsest level
	Direct   *direct.Cholesky   // coarsest level only

	// Work counts the flops attributed to this level by the cycles run so
	// far (matvecs, transfers into the level, direct solves); smoother
	// work is available from Smoother.Flops().
	Work int64

	// scratch
	x, b, res []float64
}

// MG is the multigrid solver/preconditioner.
type MG struct {
	Levels []*Level
	Opts   Options

	// SetupFlops counts the Galerkin triple products and smoother/direct
	// factorizations (the paper's "matrix setup" phase).
	SetupFlops int64
	// CycleFlops counts the work of all cycles applied so far (matvecs,
	// grid transfers, direct solves; smoother flops are tracked by the
	// smoothers and added in Flops()).
	CycleFlops int64
	// Applies counts preconditioner applications.
	Applies int

	// task is the request scope cycles are attributed to (nil outside a
	// served request). An MG instance is leased to exactly one solve at a
	// time (the serve cache's checkout protocol), so the field needs no
	// synchronization: SetTask and Apply run on the leasing goroutine.
	task *obs.Task
}

// SetTask attaches a request-scoped obs task to the preconditioner and
// its level smoothers: every subsequent Apply credits its cycle flops
// (grid transfers and coarse solves) and V-cycle count to the task, and
// the smoothers credit their sweep flops likewise. Pass nil to detach
// before returning a leased instance to its pool. Only valid while the
// caller holds exclusive use of the instance.
func (mg *MG) SetTask(t *obs.Task) {
	mg.task = t
	for _, l := range mg.Levels {
		if l.Smoother != nil {
			l.Smoother.SetTask(t)
		}
	}
}

// CompressCols removes matrix columns of constrained dofs: full2red maps
// full dof -> reduced dof or -1. Used to align the first restriction
// operator (built on all vertex dofs) with the reduced fine system.
func CompressCols(r *sparse.CSR, full2red []int, nred int) *sparse.CSR {
	return r.Select(identity(r.NRows), full2red, nred, 0)
}

func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

// pinList finds the coarse dofs a Galerkin operator pins from its diagonal
// d: dofs whose basis functions have no free fine-grid support, since
// compressing the first restriction against the Dirichlet constraints can
// zero entire rows of R, which makes the operator exactly singular there.
// The restriction never transfers residual to (nor prolongs correction
// from) such dofs, so replacing their zero diagonal with the matrix's
// largest diagonal keeps the operator SPD without changing the
// preconditioner's action. pinList returns that value and the identity
// list with -1 at every bad dof — read as a row list it pins the bad rows,
// read as a column map it drops the bad columns — or nil when no dof is
// bad.
func pinList(d []float64) (keep []int, maxd float64) {
	for _, v := range d {
		if v > maxd {
			maxd = v
		}
	}
	if maxd == 0 {
		maxd = 1
	}
	for i, v := range d {
		if v <= 1e-13*maxd {
			if keep == nil {
				keep = identity(len(d))
			}
			keep[i] = -1
		}
	}
	return keep, maxd
}

// opSymmetric is the storage-polymorphic symmetry diagnostic used by the
// promdebug hierarchy checks.
func opSymmetric(a sparse.Operator, tol float64) bool {
	switch m := a.(type) {
	case *sparse.CSR:
		return m.IsSymmetric(tol)
	case *sparse.BSR:
		return m.IsSymmetric(tol)
	default:
		return true
	}
}

// New assembles the hierarchy: fineA is the (reduced) fine operator and
// restrictions[l] maps level l dofs to level l+1 dofs, already aligned with
// fineA's dof numbering on level 0. It is Build without a plan to reuse.
func New(fineA sparse.Operator, restrictions []*sparse.CSR, opts Options) (*MG, error) {
	mg, _, err := Build(nil, fineA, restrictions, opts)
	return mg, err
}

// Build assembles the hierarchy as New does, from plan when plan was made
// for fineA's pattern, the same restrictions and the same options, and
// from a new plan otherwise. It returns the plan the hierarchy was filled
// from, for the caller to hand to the next Build. A hierarchy filled from a
// reused plan is bitwise the one a new plan gives. The fine operator must
// store its entries (*sparse.CSR or *sparse.BSR): the plan is made from its
// pattern, and so is the one storage decision, which no option overrides:
// a CSR that blocks into 3x3 node blocks with no fill is applied in
// blocks, any other operator as handed in, and every Galerkin level below
// in blocks where its own shape allows (sparse.PlanBlock). Blocking is a
// kernel choice: solutions are bitwise those of an all-scalar hierarchy.
// The fine pattern, and each Galerkin level's, must be structurally
// symmetric — (j, i) stored wherever (i, j) is — as every assembled or
// Galerkin operator's is: the smoother's blocks are partitioned on it as a
// graph (a check under promdebug).
func Build(plan *Plan, fineA sparse.Operator, restrictions []*sparse.CSR, opts Options) (*MG, *Plan, error) {
	if err := CheckAssembled(fineA); err != nil {
		return nil, nil, err
	}
	sp := obs.Start(evSetup)
	mg, plan, err := build(plan, fineA, restrictions, opts.withDefaults())
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if check.Enabled {
		// The hierarchy the cycles recurse over must strictly shrink, and
		// every Galerkin operator must stay symmetric for the SPD smoothers
		// and the coarsest Cholesky factorization.
		dims := make([]int, len(mg.Levels))
		for i, lvl := range mg.Levels {
			dims[i] = lvl.A.Rows()
			check.Assert(opSymmetric(lvl.A, 1e-8), "multigrid.New: level %d operator not symmetric", i)
		}
		check.StrictlyDecreasing(dims, "multigrid.New level dims")
	}
	for li, lvl := range mg.Levels {
		obs.RecordLevel(li, lvl.A.Rows(), lvl.A.NNZ(), storageName(lvl.A))
	}
	return mg, plan, nil
}

func build(plan *Plan, fineA sparse.Operator, restrictions []*sparse.CSR, opts Options) (*MG, *Plan, error) {
	if fineA.Rows() != fineA.Cols() {
		return nil, nil, errors.New("multigrid: fine operator must be square")
	}
	if plan != nil && plan.matches(fineA, restrictions, opts) {
		mg, err := plan.fill(fineA)
		if !errors.Is(err, errPinsMoved) {
			cPlanReused.Inc()
			return mg, plan, err
		}
	}
	plan = newPlan(fineA, restrictions, opts)
	mg, err := plan.fill(fineA)
	if err != nil {
		return nil, nil, err
	}
	cPlanBuilt.Inc()
	return mg, plan, nil
}

// CheckAssembled returns an error unless a stores its entries: a
// hierarchy is planned from the fine operator's pattern, which only *CSR
// and *BSR have.
func CheckAssembled(a sparse.Operator) error {
	switch a.(type) {
	case *sparse.CSR, *sparse.BSR:
		return nil
	}
	return fmt.Errorf("multigrid: fine operator must be *sparse.CSR or *sparse.BSR, got %T", a)
}

// newLevel returns a level applying a, with its cycle scratch.
func newLevel(a sparse.Operator) *Level {
	n := a.Rows()
	return &Level{A: a, x: make([]float64, n), b: make([]float64, n), res: make([]float64, n)}
}

// makeSmoother builds the smoother that applies a: it factors the blocks
// bj plans, gathered from setup, the matrix of the Galerkin chain (a
// itself, or the scalar matrix a was blocked from), and wraps them in CG.
func (mg *MG) makeSmoother(a sparse.Operator, bj *smooth.BlockPlan, setup sparse.Operator) (*smooth.CGSmoother, error) {
	spf := obs.Start(evSmootherFactor)
	s, err := bj.Factor(setup)
	spf.End()
	if err != nil {
		return nil, fmt.Errorf("multigrid: block smoother: %w", err)
	}
	mg.SetupFlops += s.SetupFlops
	return smooth.NewCGSmoother(a, s), nil
}

// NumLevels returns the number of grids.
func (mg *MG) NumLevels() int { return len(mg.Levels) }

// cycle improves x for A_l·x = b with one V-cycle from level l down.
// zero promises that x is all zeros on entry; otherwise the guess it
// holds is respected. One visit of a smoothed level applies A_l four
// times — two per CG step before and after the coarse correction — and
// three times from a zero guess, whose residual is b: the residual the
// cycle restricts is the smoother's own.
func (mg *MG) cycle(l int, b, x []float64, zero bool) {
	lvl := mg.Levels[l]
	if lvl.Direct != nil {
		spd := obs.Start(evCoarse)
		lvl.Direct.Solve(b, x)
		spd.EndFlops(lvl.Direct.SolveFlops())
		mg.CycleFlops += lvl.Direct.SolveFlops()
		lvl.Work += lvl.Direct.SolveFlops()
		return
	}
	res := lvl.Smoother.SmoothResidual(x, b, mg.Opts.PreSmooth, zero)
	next := mg.Levels[l+1]
	next.R.MulVec(res, next.b)
	mg.CycleFlops += next.R.MulVecFlops()
	next.Work += next.R.MulVecFlops()
	for i := range next.x {
		next.x[i] = 0
	}
	mg.cycle(l+1, next.b, next.x, true)
	// x += P·xc.
	next.P.MulVec(next.x, lvl.res)
	mg.CycleFlops += next.P.MulVecFlops()
	next.Work += next.P.MulVecFlops()
	la.Axpy(1, lvl.res, x)
	mg.CycleFlops += 2 * int64(len(x))
	lvl.Work += 2 * int64(len(x))
	lvl.Smoother.Smooth(x, b, mg.Opts.PostSmooth)
}

// fmg performs one full multigrid cycle for the fine right-hand side b,
// writing the result to x (overwritten): the residual is restricted to
// every level, the coarsest is solved directly, and each finer level
// receives the prolonged solution as the initial guess of a V-cycle.
func (mg *MG) fmg(b, x []float64) {
	n := len(mg.Levels)
	// Restrict b down the hierarchy.
	copy(mg.Levels[0].b, b)
	for l := 1; l < n; l++ {
		mg.Levels[l].R.MulVec(mg.Levels[l-1].b, mg.Levels[l].b)
		mg.CycleFlops += mg.Levels[l].R.MulVecFlops()
		mg.Levels[l].Work += mg.Levels[l].R.MulVecFlops()
	}
	// Coarsest solve.
	last := mg.Levels[n-1]
	mg.cycle(n-1, last.b, last.x, false)
	// Work back up: prolong and V-cycle.
	for l := n - 2; l >= 0; l-- {
		lvl := mg.Levels[l]
		next := mg.Levels[l+1]
		next.P.MulVec(next.x, lvl.x)
		mg.CycleFlops += next.P.MulVecFlops()
		next.Work += next.P.MulVecFlops()
		mg.cycle(l, lvl.b, lvl.x, false)
	}
	copy(x, mg.Levels[0].x)
}

// Apply implements krylov.Preconditioner: z approximates A⁻¹·r with one
// multigrid cycle.
func (mg *MG) Apply(r, z []float64) {
	sp := obs.StartTask(evApply, mg.task)
	cApplies.Inc()
	f0 := mg.CycleFlops
	mg.apply(r, z)
	// The cycle-flop delta (transfers, coarse solves, residual matvecs)
	// is credited to the apply event and, through the span, the request
	// task. Smoother sweeps record under their own events, so summing
	// krylov + mg.apply + smooth.* event flops counts each operation
	// exactly once.
	sp.EndFlops(mg.CycleFlops - f0)
	mg.task.AddVCycles(1)
}

func (mg *MG) apply(r, z []float64) {
	mg.Applies++
	if mg.Opts.Cycle == VCycle {
		for i := range z {
			z[i] = 0
		}
		mg.cycle(0, r, z, true)
		return
	}
	mg.fmg(r, z)
}

// Flops returns total work: setup excluded, cycles plus smoother work.
func (mg *MG) Flops() int64 {
	f := mg.CycleFlops
	for _, l := range mg.Levels {
		if l.Smoother != nil {
			f += l.Smoother.Flops()
		}
	}
	return f
}

// OperatorComplexity returns sum(nnz(A_l))/nnz(A_0), the standard measure
// of hierarchy cost.
func (mg *MG) OperatorComplexity() float64 {
	total := 0
	for _, l := range mg.Levels {
		total += l.A.NNZ()
	}
	return float64(total) / float64(mg.Levels[0].A.NNZ())
}

// LevelWork returns the total flops attributed to each level so far,
// including smoother work (used by the performance model to distribute
// work across simulated ranks).
func (mg *MG) LevelWork() []int64 {
	out := make([]int64, len(mg.Levels))
	for i, l := range mg.Levels {
		out[i] = l.Work
		if l.Smoother != nil {
			out[i] += l.Smoother.Flops()
		}
	}
	return out
}
