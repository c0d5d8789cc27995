// Package smooth implements the paper's multigrid smoother (section 7.2):
// one step of conjugate gradients per smoothing step, preconditioned by a
// domain-decomposed block Jacobi whose graph-partitioned blocks ("block
// Jacobi with 6 blocks for every 1,000 unknowns") are factored with
// Cholesky at setup. The CG iteration is written against sparse.Operator
// and the block setup gathers from either assembled storage, so CSR and BSR
// levels run through the same algorithm.
//
// The blocks arrive planned (multigrid plans them): each is a part of the
// level's node graph on a blocked level, every node's dofs together, or of
// its dof graph on a scalar one, and lists its dofs in the reverse
// Cuthill–McKee order of its units. PlanBlocks keeps that order and lays
// each block's factor out as an envelope from it: the order decides how
// many values the factor stores. The factorization and the solves run on
// row pairs (la.FactorEnvelope, la.Cholesky.Solve) and give the bits of a
// row at a time, so of the three — partition, order, kernels — the
// partition moves blocks and iteration counts, the order moves rounding,
// and the kernels move nothing.
package smooth

import (
	"fmt"
	"math"
	"slices"

	"prometheus/internal/graph"
	"prometheus/internal/la"
	"prometheus/internal/obs"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// taskRef carries the request-scoped obs task a smoother attributes
// its work to. Smoothers belong to exactly one MG instance and an
// MG instance is leased to one solve at a time, so the field is set and
// read on the leasing goroutine — no synchronization needed.
type taskRef struct {
	task *obs.Task
}

// SetTask attaches (or, with nil, detaches) the request-scoped obs
// task subsequent applications are attributed to. Called by
// multigrid.SetTask while the owner holds exclusive use of the smoother.
func (c *taskRef) SetTask(t *obs.Task) { c.task = t }

// DomainBlockJacobi is the paper's subdomain preconditioner, the one
// CGSmoother applies every step: the unknowns are partitioned into a few
// large blocks (METIS in the paper, the greedy graph partitioner here — "6
// blocks for every 1,000 unknowns"), each diagonal block is factored with
// dense Cholesky at setup, and an application solves every block against
// its own entries of the residual simultaneously.
type DomainBlockJacobi struct {
	taskRef
	plan  *BlockPlan // shared, read-only
	chols []*la.Cholesky
	// The block solves of one application run side by side on the shared
	// worker set (pool.RunIndexed, item = block), so no two may share a
	// buffer: block bi gathers into scratch[off[bi]:off[bi+1]], and
	// ws[off[bi]:off[bi+1]] is its dofs again as the write set the
	// dispatch claims under promdebug.
	scratch []float64
	flops   int64
	// SetupFlops records the factorization cost (the paper's "matrix
	// setup" phase includes the subdomain factorizations).
	SetupFlops int64
}

// BlockPlan is the symbolic half of a DomainBlockJacobi: the blocks and
// their write sets, each dof's position inside its block, which the block
// gathers read, and the envelope every block factor is stored in. It
// depends on the partition and the pattern only, so one plan serves every
// operator with the pattern it was made from; it is read-only once made
// and shared by the smoothers Factor makes from it.
type BlockPlan struct {
	n      int
	blocks [][]int // dof indices per block
	ws     []int32
	off    []int
	// env[bi] lays out block bi's factor (la.EnvelopeOffsets): row p, in
	// the block's dof order, stores the columns from its first stored
	// in-block column, rounded down to a multiple of 4, to p. facOff
	// places the factor at [facOff[bi], facOff[bi+1]).
	env    [][]int
	facOff []int
	// pos[d] is dof d's position inside its own block: read-only, so every
	// block gathers through the one array.
	pos []int
	// solveWork is the multiply-adds of one application, two per stored
	// factor entry: what the dispatch weighs against pool.Grain and,
	// doubled, the flops every application adds. factorWork is the
	// factorizations' multiply-adds, inner products over the columns both
	// rows store.
	solveWork, factorWork int
	setupFlops            int64
}

// blockShiftTries bounds the escalating diagonal shifts a block
// factorization is retried with: 1e-12, 1e-10, … 1e-4 of the block's
// largest diagonal entry.
const blockShiftTries = 5

// BlocksPerThousand is the paper's block density for the domain smoother:
// 6 blocks per 1000 unknowns.
const BlocksPerThousand = 6

// NewDomainBlockJacobi factors the diagonal blocks of a given by part
// (dof -> block): PlanBlocks on a's pattern and Factor in one.
func NewDomainBlockJacobi(a *sparse.CSR, part []int, nblocks int) (*DomainBlockJacobi, error) {
	if len(part) != a.NRows {
		return nil, fmt.Errorf("smooth: partition covers %d of %d dofs", len(part), a.NRows)
	}
	return PlanBlocks(a, graph.PartMembers(part, nblocks)).Factor(a)
}

// PlanBlocks plans the smoother with the given blocks (dof lists, each dof
// in at most one) for the matrices with pattern's scalar pattern: write
// sets, positions, and each block factor's envelope, which starts row p of
// a block at its first in-block column the pattern stores, rounded down to
// a multiple of 4. Entries left of it are zero in every such matrix and
// stay zero through the factorization, so they are neither stored nor
// touched; the alignment keeps every remaining term of the factorization
// and the solves in the accumulator of the dense triangle's four-way dot,
// so the factor and the solves are the dense ones bit for bit. A block's
// factor rows are its dofs in the order given, which is what decides the
// envelope: the caller orders each block (multigrid orders it by reverse
// Cuthill–McKee), PlanBlocks keeps it. The envelopes are laid out block by
// block on the shared worker set.
func PlanBlocks(pattern *sparse.CSR, blocks [][]int) *BlockPlan {
	p, k := newEnvelopeScan(pattern, blocks)
	pool.RunItems(k, len(blocks), 1, len(pattern.ColIdx))
	for bi, env := range p.env {
		p.facOff[bi+1] = p.facOff[bi] + env[len(env)-1]
		p.solveWork += 2 * env[len(env)-1]
		p.factorWork += k.work[bi]
	}
	p.setupFlops = 2 * int64(p.factorWork)
	return p
}

// newEnvelopeScan returns the plan of these blocks with their write sets
// and positions laid out, and the item kernel that lays out their
// envelopes.
func newEnvelopeScan(pattern *sparse.CSR, blocks [][]int) (*BlockPlan, *envelopeScan) {
	n := pattern.NRows
	p := &BlockPlan{
		n: n, blocks: blocks, ws: make([]int32, 0, n), pos: make([]int, n),
		off: make([]int, len(blocks)+1), env: make([][]int, len(blocks)),
		facOff: make([]int, len(blocks)+1),
	}
	for bi, dofs := range blocks {
		for r, d := range dofs {
			p.pos[d] = r
			p.ws = append(p.ws, int32(d))
		}
		p.off[bi+1] = len(p.ws)
	}
	return p, &envelopeScan{p: p, pattern: pattern, work: make([]int, len(blocks))}
}

// envelopeScan is PlanBlocks' envelope pass as a pool.ItemKernel over
// blocks: item bi scans block bi's rows of the pattern for each row's
// first in-block column and stores the block's envelope (p.env[bi]) and
// factorization work (work[bi]). It reads the positions, which every block
// shares and none writes.
type envelopeScan struct {
	p       *BlockPlan
	pattern *sparse.CSR
	work    []int
	first   [pool.Lanes][]int // per-lane scratch
}

// EnvelopeKernel returns PlanBlocks' envelope pass over blocks as the item
// kernel it dispatches, nothing laid out yet, with what it writes: each
// block's envelope offsets (nil until laid out) and factorization work.
// For TestKernelContract.
func EnvelopeKernel(pattern *sparse.CSR, blocks [][]int) (k pool.ItemKernel, env [][]int, work []int) {
	p, scan := newEnvelopeScan(pattern, blocks)
	return scan, p.env, scan.work
}

// Items implements pool.ItemKernel over the blocks [lo, hi).
func (k *envelopeScan) Items(w, lo, hi int) {
	pattern, pos := k.pattern, k.p.pos
	for bi := lo; bi < hi; bi++ {
		dofs := k.p.blocks[bi]
		first := k.first[w][:0]
		for r, d := range dofs {
			f := r
			for _, j := range pattern.ColIdx[pattern.RowPtr[d]:pattern.RowPtr[d+1]] {
				if q := pos[j]; q < f && dofs[q] == j {
					f = q
				}
			}
			first = append(first, f&^3)
		}
		k.first[w] = first
		k.p.env[bi] = la.EnvelopeOffsets(first)
		k.work[bi] = choleskyWork(first)
	}
}

// choleskyWork returns the multiply-adds of factoring an envelope with
// these row starts: row i's inner product with row j runs over the columns
// from the later of their starts to j.
func choleskyWork(first []int) int {
	w := 0
	for i, fi := range first {
		for j := fi; j <= i; j++ {
			w += j - max(fi, first[j])
		}
	}
	return w
}

// lowerGatherer is the block gather of the assembled storages
// (sparse.CSR, sparse.BSR).
type lowerGatherer interface {
	GatherLowerEnvelope(idx, pos, off []int, l []float64)
}

// Factor gathers every block from setup, the matrix the partition was
// made on (the level operator, or the CSR a fine level was blocked from
// with no fill), and factors it. Blocks are independent, so the gathers and
// factorizations run on the shared worker set.
func (p *BlockPlan) Factor(setup sparse.Operator) (*DomainBlockJacobi, error) {
	g, ok := setup.(lowerGatherer)
	if !ok || setup.Rows() != p.n {
		return nil, fmt.Errorf("smooth: the block smoother gathers from assembled storage of %d rows, not %T", p.n, setup)
	}
	nblocks := len(p.blocks)
	s := &DomainBlockJacobi{
		plan: p, SetupFlops: p.setupFlops,
		chols: make([]*la.Cholesky, nblocks), scratch: make([]float64, p.n),
	}
	f := s.newBlockFactor(g)
	pool.RunItems(f, nblocks, 1, p.factorWork)
	for bi, err := range f.errs {
		if err != nil {
			return nil, fmt.Errorf("smooth: block %d (%d dofs): %w", bi, len(p.blocks[bi]), err)
		}
	}
	return s, nil
}

// blockFactor is the setup loop of Factor as a pool.ItemKernel over
// blocks: item bi gathers block bi of setup into its stretch of fac,
// factors it there and stores the factor in s.
type blockFactor struct {
	s     *DomainBlockJacobi
	setup lowerGatherer
	// fac is the storage of every factor, block bi's envelope at
	// fac[facOff[bi]:facOff[bi+1]].
	fac  []float64
	errs []error
}

func (s *DomainBlockJacobi) newBlockFactor(setup lowerGatherer) *blockFactor {
	return &blockFactor{
		s: s, setup: setup, fac: make([]float64, s.plan.facOff[len(s.plan.blocks)]),
		errs: make([]error, len(s.plan.blocks)),
	}
}

// FactorKernel returns the setup kernel that gathers and factors s's
// blocks from setup (CSR or BSR), with the factor storage it writes, for
// TestKernelContract: running it factors the blocks again, to the same
// bits.
func (s *DomainBlockJacobi) FactorKernel(setup sparse.Operator) (pool.ItemKernel, []float64) {
	f := s.newBlockFactor(setup.(lowerGatherer))
	return f, f.fac
}

// Items implements pool.ItemKernel over the blocks [lo, hi).
func (f *blockFactor) Items(_, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		f.errs[bi] = f.factor(bi)
	}
}

// factor gathers and factors block bi.
// Principal submatrices of an SPD operator are SPD, but aggressive
// Galerkin coarsening with 1e4 coefficient jumps can leave blocks positive
// definite only to within roundoff; retry with escalating diagonal shifts
// before giving up (the shift only weakens the preconditioner slightly).
// The factorization overwrites its input, so a retry gathers the block
// again.
func (f *blockFactor) factor(bi int) error {
	p := f.s.plan
	dofs := p.blocks[bi]
	if len(dofs) == 0 {
		return nil
	}
	l := f.fac[p.facOff[bi]:p.facOff[bi+1]:p.facOff[bi+1]]
	env := p.env[bi]
	for try, shift := 0, 0.0; ; try++ {
		f.setup.GatherLowerEnvelope(dofs, p.pos, env, l)
		maxDiag := shiftDiagonal(env, l, shift)
		chol, err := la.FactorEnvelope(env, l)
		if err == nil {
			f.s.chols[bi] = chol
			return nil
		}
		if try == blockShiftTries {
			return err
		}
		if shift == 0 {
			shift = 1e-12 * maxDiag
		} else {
			shift *= 100
		}
	}
}

// shiftDiagonal adds shift to the diagonal of the lower envelope l laid
// out by env and returns its largest unshifted diagonal entry, 1 when none
// is positive.
func shiftDiagonal(env []int, l []float64, shift float64) float64 {
	maxDiag := 0.0
	// Row p ends with its diagonal, just before row p+1 starts.
	for _, end := range env[1:] {
		k := end - 1
		if l[k] > maxDiag {
			maxDiag = l[k]
		}
		l[k] += shift
	}
	if maxDiag == 0 {
		return 1
	}
	return maxDiag
}

// DefaultBlockCount returns the paper's 6-blocks-per-1000-unknowns rule
// for the domain smoother (at least one block).
func DefaultBlockCount(n int) int {
	nb := n * BlocksPerThousand / 1000
	if nb < 1 {
		nb = 1
	}
	return nb
}

// blockSolve is a DomainBlockJacobi seen as the pool.IndexedKernel of its
// block solves: item = block, write set = the block's dofs.
type blockSolve DomainBlockJacobi

// SolveKernel returns the block solves of one application as the indexed
// kernel Apply dispatches, for TestKernelContract.
func (s *DomainBlockJacobi) SolveKernel() pool.IndexedKernel { return (*blockSolve)(s) }

// ApplyOne implements pool.IndexedKernel: z = M⁻¹·r on block bi, through
// the block's own stretch of the scratch vector.
func (k *blockSolve) ApplyOne(r, z []float64, bi int) {
	dofs := k.plan.blocks[bi]
	if len(dofs) == 0 {
		return
	}
	rb := k.scratch[k.plan.off[bi]:k.plan.off[bi+1]]
	for i, d := range dofs {
		rb[i] = r[d]
	}
	k.chols[bi].Solve(rb, rb)
	for i, d := range dofs {
		z[d] = rb[i]
	}
}

// WriteSet implements pool.IndexedKernel.
func (k *blockSolve) WriteSet(bi int) []int32 { return k.plan.ws[k.plan.off[bi]:k.plan.off[bi+1]] }

// Apply solves M·z = r, every block against its own entries of r (r and z
// may alias): the blocks are the items of one indexed dispatch.
func (s *DomainBlockJacobi) Apply(r, z []float64) {
	pool.RunIndexed(s.task, (*blockSolve)(s), r, z, len(s.plan.blocks), s.plan.solveWork)
	s.flops += 2 * int64(s.plan.solveWork)
}

// Flops returns the accumulated work of the block solves.
func (s *DomainBlockJacobi) Flops() int64 { return s.flops }

// FactorLen returns the number of values the block factors store, over
// every block.
func (s *DomainBlockJacobi) FactorLen() int { return s.plan.facOff[len(s.plan.blocks)] }

// BlockFactor returns block bi's factor, nil for an empty block. It is the
// smoother's own; callers must not modify it.
func (s *DomainBlockJacobi) BlockFactor(bi int) *la.Cholesky { return s.chols[bi] }

// Blocks returns the partition: the dof indices of every block, in block
// order. The slices are the smoother's own; callers must not modify them.
func (s *DomainBlockJacobi) Blocks() [][]int { return s.plan.blocks }

// NumBlocks returns the number of non-empty blocks.
func (s *DomainBlockJacobi) NumBlocks() int {
	n := 0
	for _, b := range s.plan.blocks {
		if len(b) > 0 {
			n++
		}
	}
	return n
}

// CGSmoother is the multigrid smoother: every smoothing step is one
// conjugate gradient iteration on A preconditioned by the block Jacobi
// Inner. This is the literal reading of the paper's smoother ("one
// pre-smoothing and one post-smoothing step within multigrid,
// preconditioned with block Jacobi"); it is self-scaling, so no damping
// estimate is needed. As a preconditioner it is slightly nonlinear, so the
// outer Krylov method must be flexible (krylov.FPCG).
type CGSmoother struct {
	taskRef
	A     sparse.Operator
	Inner *DomainBlockJacobi
	// CG vectors, hoisted so every smoothing step is allocation-free.
	r, z, p, ap []float64
	flops       int64
}

// NewCGSmoother wraps inner in a CG iteration on a.
func NewCGSmoother(a sparse.Operator, inner *DomainBlockJacobi) *CGSmoother {
	nn := a.Rows()
	return &CGSmoother{
		A: a, Inner: inner,
		r: make([]float64, nn), z: make([]float64, nn),
		p: make([]float64, nn), ap: make([]float64, nn),
	}
}

// Smooth runs n preconditioned CG iterations on A·x = b, continuing from
// the guess x holds on entry and updating it in place.
func (s *CGSmoother) Smooth(x, b []float64, n int) {
	s.SmoothResidual(x, b, n, false)
}

// SmoothResidual is Smooth that also returns b - A·x for the x it leaves,
// in a vector the smoother owns and overwrites on its next call; the
// multigrid cycle restricts it instead of forming the residual a second
// time. zero promises that x is all zeros on entry, so the starting
// residual is b and no product is spent on finding that out. The vector
// returned is the CG recurrence residual r, updated by r -= α·A·p in step with x += α·p: it
// is b - A·x (to rounding) for the x left behind on every return path, the
// breakdown returns included, because those leave x and r untouched.
func (s *CGSmoother) SmoothResidual(x, b []float64, n int, zero bool) []float64 {
	sp := obs.StartTask(evCG, s.task)
	f0 := s.Flops()
	s.smooth(x, b, n, zero)
	sp.EndFlops(s.Flops() - f0)
	return s.r
}

// smooth is the span-free body; it returns early on breakdown, so the
// wrapper above keeps the obs span balanced on every path.
func (s *CGSmoother) smooth(x, b []float64, n int, zero bool) {
	nn := s.A.Rows()
	r, z, p, ap := s.r, s.z, s.p, s.ap
	if zero {
		copy(r, b)
	} else {
		s.A.Residual(b, x, r)
		s.flops += s.A.MulVecFlops() + int64(nn)
	}
	s.Inner.Apply(r, z)
	copy(p, z)
	rz := la.Dot(r, z)
	s.flops += 2 * int64(nn)
	for it := 0; it < n; it++ {
		// NaN-safe breakdown tests: a non-finite rz or a pap that is not
		// a positive number ends the step with x as it stands instead of
		// sweeping NaN arithmetic through the level.
		if rz == 0 || math.IsNaN(rz) || math.IsInf(rz, 0) {
			return
		}
		s.A.MulVec(p, ap)
		pap := la.Dot(p, ap)
		s.flops += s.A.MulVecFlops() + 2*int64(nn)
		if !(pap > 0) {
			return
		}
		alpha := rz / pap
		la.Axpy(alpha, p, x)
		la.Axpy(-alpha, ap, r)
		s.flops += 4 * int64(nn)
		if it == n-1 {
			return
		}
		s.Inner.Apply(r, z)
		rzNew := la.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		s.flops += 4 * int64(nn)
	}
}

// Apply is the preconditioner form: one smoothing step from a zero guess,
// z ≈ A⁻¹·r.
func (s *CGSmoother) Apply(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	s.SmoothResidual(z, r, 1, true)
}

// Flops returns the accumulated work: the CG iteration's own plus the
// block solves', which run nowhere else.
func (s *CGSmoother) Flops() int64 { return s.flops + s.Inner.Flops() }

// SetTask attaches the request task to the CG iteration and its block
// solves.
func (s *CGSmoother) SetTask(t *obs.Task) {
	s.taskRef.SetTask(t)
	s.Inner.SetTask(t)
}

// bytes returns the bytes of the plan's arrays: the blocks and their
// write sets, each dof's position and the factors' envelopes.
func (p *BlockPlan) bytes() int64 {
	n := len(p.off) + len(p.facOff) + len(p.pos)
	for _, b := range p.blocks {
		n += len(b)
	}
	for _, e := range p.env {
		n += len(e)
	}
	return 8*int64(n) + 24*int64(len(p.blocks)+len(p.env)) + 4*int64(len(p.ws))
}

// Bytes returns the bytes of the smoother: owned is what it holds alone,
// its block factors (FactorLen values) and the block solves' scratch;
// shared is its plan, which every smoother factored from it holds in
// common.
func (s *DomainBlockJacobi) Bytes() (owned, shared int64) {
	// facOff is nondecreasing from 0: its largest entry is FactorLen.
	return 8 * int64(slices.Max(s.plan.facOff)+len(s.scratch)), s.plan.bytes()
}

// Bytes returns the bytes of the smoother, split as
// DomainBlockJacobi.Bytes splits them, with the CG vectors owned. The
// matrix it smooths is not its own and is not counted.
func (s *CGSmoother) Bytes() (owned, shared int64) {
	owned, shared = s.Inner.Bytes()
	return owned + 8*int64(len(s.r)+len(s.z)+len(s.p)+len(s.ap)), shared
}
