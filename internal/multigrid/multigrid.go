// Package multigrid is the Epimetheus layer of the reproduction: it takes
// the fine-grid operator and the restriction operators built by the core
// coarsening and assembles the algebraic hierarchy (A_{l+1} = R·A_l·Rᵀ,
// section 3), provides the V-cycle of Figure 1 and the full multigrid (FMG)
// cycle used in the experiments, the block-Jacobi smoothers of section 7.2,
// a direct solve on the coarsest grid, and the preconditioner adapter for
// PCG. All phases count flops for the efficiency analysis of section 6.
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

// SmootherKind selects the smoother.
type SmootherKind int

const (
	// DomainBlockJacobiCG (the default) wraps the domain-decomposed block
	// Jacobi in a conjugate gradient iteration — the literal reading of
	// the paper's smoother ("one pre-smoothing and one post-smoothing step
	// within multigrid, preconditioned with block Jacobi with 6 blocks for
	// every 1,000 unknowns"). Slightly nonlinear: the outer Krylov method
	// must be flexible (krylov.FPCG), which the solver uses throughout.
	DomainBlockJacobiCG SmootherKind = iota
	// DomainBlockJacobi is a stationary damped sweep of the same
	// graph-partitioned subdomain smoother.
	DomainBlockJacobi
	// Jacobi is damped pointwise Jacobi.
	Jacobi
	// GaussSeidel is symmetric SOR (nodal block sweeps on BSR storage).
	GaussSeidel
	// Chebyshev is polynomial smoothing.
	Chebyshev
	// NodeBlockJacobi is the paper's "block diagonal" smoother for
	// vector-valued problems: damped Jacobi on the inverted 3x3 nodal
	// diagonal blocks. Requires BSR level operators.
	NodeBlockJacobi
)

// StorageKind selects the per-level matrix storage.
type StorageKind int

const (
	// StorageAuto (the default) takes the fine operator as handed in and
	// gives every Galerkin level the block kernel when that level's own
	// shape allows (sparse.AutoBlock: BlockSize-divisible dimension, fill at
	// most 2x). A BSR fine grid gets BSR coarse grids straight from the
	// blocked Galerkin product; under a CSR fine grid — or below a level
	// whose pinned rows take entries out of its blocks — setup and the next
	// product read the scalar matrix of the Galerkin chain and the cycle
	// applies a BSR copy of it. Blocking is a kernel choice, not
	// arithmetic: solutions are bitwise those of StorageCSR.
	StorageAuto StorageKind = iota
	// StorageCSR forces scalar CSR on every level.
	StorageCSR
	// StorageBSR also blocks the fine operator (3x3 node blocks) when its
	// dimensions and sparsity allow; the levels below follow StorageAuto.
	StorageBSR
	// StorageMatrixFree keeps the fine operator matrix-free: level 0 is the
	// caller's assembly-free operator (fem.EBEOperator) applied element by
	// element, and the first coarse operator is assembled directly from
	// element contributions through the sparse.GalerkinAssembler
	// capability, so no fine-grid matrix ever exists. Coarse levels are
	// assembled Galerkin CSR exactly as in the scalar pipeline.
	// Row-traversal smoothers fall back to Chebyshev on the matrix-free
	// level.
	StorageMatrixFree
)

// CycleKind selects the multigrid cycle used per preconditioner apply.
type CycleKind int

const (
	// FMG is one full multigrid cycle (the paper's choice, section 7.2).
	FMG CycleKind = iota
	// VCycle is one V-cycle (Figure 1).
	VCycle
	// WCycle visits each coarse level twice per descent — more robust on
	// hard problems at roughly twice the coarse-grid cost.
	WCycle
)

// Options configures the solver.
type Options struct {
	PreSmooth  int // default 1 (paper)
	PostSmooth int // default 1 (paper)
	Smoother   SmootherKind
	Cycle      CycleKind
	Omega      float64         // damping for Jacobi/SOR (default 1)
	BlockCount func(n int) int // block rule (default: paper's 6/1000)
	ChebDegree int             // default 3
	Storage    StorageKind     // per-level storage (default: follow the fine operator)
	// BlockSize is the node-block size used by StorageBSR (default 3, the
	// elasticity dofs-per-node).
	BlockSize int
}

func (o Options) withDefaults() Options {
	if o.PreSmooth == 0 {
		o.PreSmooth = 1
	}
	if o.PostSmooth == 0 {
		o.PostSmooth = 1
	}
	if o.Omega == 0 {
		o.Omega = 1
	}
	if o.BlockCount == nil {
		o.BlockCount = smooth.DefaultBlockCount
	}
	if o.ChebDegree == 0 {
		o.ChebDegree = 3
	}
	if o.BlockSize == 0 {
		o.BlockSize = 3
	}
	return o
}

// blocksGalerkinLevels reports whether the levels below the fine one take
// the block kernel when their shape allows. StorageCSR asks for scalar
// everywhere and StorageMatrixFree for assembled CSR below the fine level;
// GaussSeidel and NodeBlockJacobi read their arithmetic off the storage
// (nodal against scalar sweeps), so they keep the storage the Galerkin
// chain produces.
func (o Options) blocksGalerkinLevels() bool {
	if o.Storage == StorageCSR || o.Storage == StorageMatrixFree {
		return false
	}
	return o.Smoother != GaussSeidel && o.Smoother != NodeBlockJacobi
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
	Smoother smooth.Smoother
	Direct   *direct.Cholesky // coarsest level only

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

// taskSetter is implemented by smoothers that can attribute their sweep
// work to a request task.
type taskSetter interface {
	SetTask(t *obs.Task)
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
		if s, ok := l.Smoother.(taskSetter); ok {
			s.SetTask(t)
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

// fixEmptyRows pins coarse dofs whose basis functions have no free
// fine-grid support: compressing the first restriction against the
// Dirichlet constraints can zero entire rows of R, which makes the Galerkin
// operator exactly singular there. The restriction never transfers residual
// to (nor prolongs correction from) such dofs, so replacing their zero
// diagonal with the matrix's largest diagonal keeps the operator SPD
// without changing the preconditioner's action.
func fixEmptyRows(a *sparse.CSR) *sparse.CSR {
	keep, maxd := pinList(a.Diag())
	if keep == nil {
		return a
	}
	return a.Select(keep, keep, a.NCols, maxd)
}

// pinList finds the dofs fixEmptyRows pins from the diagonal d: it returns
// the value to pin them with (the largest diagonal) and the identity list
// with -1 at every bad dof — read as a row list it pins the bad rows, read
// as a column map it drops the bad columns — or nil when no dof is bad.
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
// from, for the caller to hand to the next Build; nil when the fine level
// is matrix-free, which has no pattern to compare. A hierarchy filled from
// a reused plan is bitwise the one a new plan gives.
func Build(plan *Plan, fineA sparse.Operator, restrictions []*sparse.CSR, opts Options) (*MG, *Plan, error) {
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
	if !assembled(fineA) {
		mg, err := newMatrixFree(fineA, restrictions, opts)
		return mg, nil, err
	}
	if opts.Storage == StorageMatrixFree {
		return nil, nil, errors.New("multigrid: StorageMatrixFree needs a fine operator with the Galerkin-assembly capability (fem.EBEOperator)")
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

// assembled reports whether a stores its entries (CSR or BSR).
func assembled(a sparse.Operator) bool {
	switch a.(type) {
	case *sparse.CSR, *sparse.BSR:
		return true
	}
	return false
}

// newMatrixFree builds the hierarchy under a matrix-free fine operator: the
// first coarse operator is assembled from element contributions through
// the sparse.GalerkinAssembler capability, the levels below are planned and
// filled from it as from an assembled fine operator, and the fine level
// gets an apply-only smoother.
func newMatrixFree(fineA sparse.Operator, restrictions []*sparse.CSR, opts Options) (*MG, error) {
	ga, ok := fineA.(sparse.GalerkinAssembler)
	if !ok {
		return nil, errors.New("multigrid: StorageMatrixFree needs a fine operator with the Galerkin-assembly capability (fem.EBEOperator)")
	}
	if len(restrictions) == 0 {
		return nil, errors.New("multigrid: StorageMatrixFree needs at least one coarse level for the direct solve")
	}
	r := restrictions[0]
	if r.NCols != fineA.Rows() {
		return nil, fmt.Errorf("multigrid: restriction %dx%d does not match operator %d", r.NRows, r.NCols, fineA.Rows())
	}
	spg := obs.Start(evGalerkin)
	first := fixEmptyRows(ga.AssembleGalerkin(r))
	spg.End()
	// Below the fine level a matrix-free hierarchy is the scalar one. Its
	// plan is not kept: there is no fine pattern to compare the next
	// operator with.
	below := opts
	below.Storage = StorageCSR
	coarse, err := newPlan(first, restrictions[1:], below).fill(first)
	if err != nil {
		return nil, err
	}
	coarse.Levels[0].R, coarse.Levels[0].P = r, r.Transpose()
	mg := &MG{Opts: opts, SetupFlops: coarse.SetupFlops + 4*int64(first.NNZ())}
	fine := newLevel(fineA)
	sps := obs.Start(evSmoother)
	fine.Smoother, err = mg.makeSmoother(fineA, nil, nil)
	sps.End()
	if err != nil {
		return nil, err
	}
	mg.Levels = append([]*Level{fine}, coarse.Levels...)
	return mg, nil
}

// newLevel returns a level applying a, with its cycle scratch.
func newLevel(a sparse.Operator) *Level {
	n := a.Rows()
	return &Level{A: a, x: make([]float64, n), b: make([]float64, n), res: make([]float64, n)}
}

// makeSmoother builds the smoother that applies a. The domain smoothers
// factor the blocks bj plans, gathered from setup, the matrix of the
// Galerkin chain (a itself, or the scalar matrix a was blocked from); an
// operator that cannot be partitioned (matrix-free, bj nil) gets Chebyshev
// instead.
func (mg *MG) makeSmoother(a sparse.Operator, bj *smooth.BlockPlan, setup sparse.Operator) (smooth.Smoother, error) {
	switch mg.Opts.Smoother {
	case Jacobi:
		return smooth.NewJacobi(a, 2.0/3), nil
	case GaussSeidel:
		if _, ok := a.(sparse.Sweeper); !ok {
			return nil, errors.New("multigrid: GaussSeidel needs ordered sweeps over stored entries; a matrix-free level cannot provide them (use Chebyshev or NodeBlockJacobi)")
		}
		return smooth.NewGaussSeidel(a, mg.Opts.Omega, true), nil
	case Chebyshev:
		return smooth.NewChebyshev(a, mg.Opts.ChebDegree, 30), nil
	case NodeBlockJacobi:
		s, err := smooth.NewNodeBlockJacobi(a, 2.0/3)
		if err != nil {
			return nil, fmt.Errorf("multigrid: NodeBlockJacobi smoother requires node-blocked storage (set Options.Storage = StorageBSR or use a node-aligned matrix-free operator): %w", err)
		}
		return s, nil
	}
	// The domain smoothers: the paper's block Jacobi, stationary or inside CG.
	if bj == nil {
		return smooth.NewChebyshev(a, mg.Opts.ChebDegree, 30), nil
	}
	spf := obs.Start(evSmootherFactor)
	s, err := bj.Factor(a, setup)
	spf.End()
	if err != nil {
		return nil, fmt.Errorf("multigrid: block smoother: %w", err)
	}
	mg.SetupFlops += s.SetupFlops
	if mg.Opts.Smoother == DomainBlockJacobi {
		s.AutoDamp()
		return s, nil
	}
	return smooth.NewCGSmoother(a, s, 1), nil
}

// NumLevels returns the number of grids.
func (mg *MG) NumLevels() int { return len(mg.Levels) }

// cycle improves x for A_l·x = b. gamma is the cycle index: 1 = V-cycle,
// 2 = W-cycle. zero promises that x is all zeros on entry; otherwise the
// guess it holds is respected. One visit of a smoothed level applies A_l
// four times when the smoother hands back its residual — two per CG step
// before and after the coarse correction — and three times from a zero
// guess, whose residual is b.
func (mg *MG) cycle(l int, b, x []float64, gamma int, zero bool) {
	lvl := mg.Levels[l]
	if lvl.Direct != nil {
		spd := obs.Start(evCoarse)
		lvl.Direct.Solve(b, x)
		spd.EndFlops(lvl.Direct.SolveFlops())
		mg.CycleFlops += lvl.Direct.SolveFlops()
		lvl.Work += lvl.Direct.SolveFlops()
		return
	}
	// The residual to restrict is the smoother's own when it carries one;
	// only a smoother that does not is followed by an explicit b - A·x.
	res := lvl.res
	if rs, ok := lvl.Smoother.(smooth.ResidualSmoother); ok {
		res = rs.SmoothResidual(x, b, mg.Opts.PreSmooth, zero)
	} else {
		lvl.Smoother.Smooth(x, b, mg.Opts.PreSmooth)
		lvl.A.Residual(b, x, res)
		mg.CycleFlops += lvl.A.MulVecFlops() + int64(len(b))
		lvl.Work += lvl.A.MulVecFlops() + int64(len(b))
	}
	next := mg.Levels[l+1]
	next.R.MulVec(res, next.b)
	mg.CycleFlops += next.R.MulVecFlops()
	next.Work += next.R.MulVecFlops()
	for i := range next.x {
		next.x[i] = 0
	}
	for g := 0; g < gamma; g++ {
		mg.cycle(l+1, next.b, next.x, gamma, g == 0)
		if next.Direct != nil {
			break // the coarsest solve is exact; repeating it is a no-op
		}
	}
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
	mg.cycle(n-1, last.b, last.x, 1, false)
	// Work back up: prolong and V-cycle.
	for l := n - 2; l >= 0; l-- {
		lvl := mg.Levels[l]
		next := mg.Levels[l+1]
		next.P.MulVec(next.x, lvl.x)
		mg.CycleFlops += next.P.MulVecFlops()
		next.Work += next.P.MulVecFlops()
		mg.cycle(l, lvl.b, lvl.x, 1, false)
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
	switch mg.Opts.Cycle {
	case VCycle, WCycle:
		gamma := 1
		if mg.Opts.Cycle == WCycle {
			gamma = 2
		}
		for i := range z {
			z[i] = 0
		}
		mg.cycle(0, r, z, gamma, true)
	default:
		mg.fmg(r, z)
	}
}

// Solve runs stationary multigrid cycles until the relative residual drops
// below rtol (or maxCycles is hit), returning the cycle count and final
// relative residual.
func (mg *MG) Solve(b, x []float64, rtol float64, maxCycles int) (int, float64) {
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
