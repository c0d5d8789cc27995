// Package smooth implements the multigrid smoothers: (damped) Jacobi,
// Gauss-Seidel/SOR and its symmetric variant, Chebyshev polynomial
// smoothing, the paper's domain-decomposed block Jacobi smoother with
// graph-partitioned blocks and dense Cholesky block solves ("block Jacobi
// with 6 blocks for every 1,000 unknowns", section 7.2), and a node-block
// Jacobi smoother that inverts the 3x3 diagonal blocks of vector-valued
// operators. Every smoother is written against sparse.Operator, so CSR and
// BSR storage run through the same algorithms.
package smooth

import (
	"fmt"
	"math"

	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/la"
	"prometheus/internal/obs"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// Smoother applies fixed-point iterations to A·x = b in place.
type Smoother interface {
	// Smooth performs n sweeps updating x in place, respecting the guess it
	// holds on entry. The smoother owns whatever scratch a sweep needs.
	Smooth(x, b []float64, n int)
	// Apply is the preconditioner form: z ≈ A⁻¹·r from a zero initial
	// guess (one sweep).
	Apply(r, z []float64)
	// Flops returns the accumulated floating point work.
	Flops() int64
}

// ResidualSmoother is the residual hand-off capability, optional in the way
// sparse's RowScanner and Sweeper are: a smoother whose iteration carries
// the residual of its own iterate implements it, and the multigrid cycle
// then restricts that vector instead of forming b - A·x a second time.
// Smoothers without it are followed by an explicit Residual.
type ResidualSmoother interface {
	// SmoothResidual is Smooth that also returns b - A·x for the x it
	// leaves, in a vector the smoother owns and overwrites on its next
	// call. zero promises that x is all zeros on entry, so the starting
	// residual is b and no product is spent on finding that out.
	SmoothResidual(x, b []float64, n int, zero bool) []float64
}

// taskRef carries the request-scoped obs task a smoother attributes
// its sweep work to. Smoothers belong to exactly one MG instance and an
// MG instance is leased to one solve at a time, so the field is set and
// read on the leasing goroutine — no synchronization needed.
type taskRef struct {
	task *obs.Task
}

// SetTask attaches (or, with nil, detaches) the request-scoped obs
// task subsequent sweeps are attributed to. Called by multigrid.SetTask
// while the owner holds exclusive use of the smoother.
func (c *taskRef) SetTask(t *obs.Task) { c.task = t }

// Jacobi is (damped) Jacobi: x += ω·D⁻¹·(b - A·x).
type Jacobi struct {
	taskRef
	A     sparse.Operator
	Omega float64
	invD  []float64
	work  []float64
	flops int64
}

// NewJacobi builds a damped Jacobi smoother. omega = 1 is plain Jacobi;
// 2/3 is the usual multigrid damping.
func NewJacobi(a sparse.Operator, omega float64) *Jacobi {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			panic(fmt.Sprintf("smooth: zero diagonal at row %d", i))
		}
		inv[i] = 1 / v
	}
	return &Jacobi{A: a, Omega: omega, invD: inv, work: make([]float64, a.Rows())}
}

// Smooth implements Smoother.
func (s *Jacobi) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evJacobi, s.task)
	f0 := s.flops
	for it := 0; it < n; it++ {
		s.A.Residual(b, x, s.work)
		for i := range x {
			x[i] += s.Omega * s.invD[i] * s.work[i]
		}
		s.flops += s.A.MulVecFlops() + 3*int64(len(x))
	}
	sp.EndFlops(s.flops - f0)
}

// Apply implements Smoother.
func (s *Jacobi) Apply(r, z []float64) {
	for i := range z {
		z[i] = s.Omega * s.invD[i] * r[i]
	}
	s.flops += 2 * int64(len(z))
}

// Flops implements Smoother.
func (s *Jacobi) Flops() int64 { return s.flops }

// GaussSeidel is SOR with symmetric option: forward sweep then (if Sym)
// backward sweep. The ordered sweep itself is the storage's job (the
// sparse.Sweeper capability): on scalar storage it updates one unknown at
// a time; on blocked storage it runs the paper's nodal variant, solving
// each node's BxB diagonal block exactly per visit (precomputed
// inverses).
type GaussSeidel struct {
	taskRef
	A     sparse.Operator
	Omega float64
	Sym   bool
	sw    sparse.Sweeper
	// Blocked path: inverted diagonal blocks and a node-sized scratch,
	// both hoisted so sweeps never allocate.
	invBlk []float64
	sum    []float64
	flops  int64
}

// NewGaussSeidel builds an SOR smoother (omega = 1 is Gauss-Seidel).
func NewGaussSeidel(a sparse.Operator, omega float64, sym bool) *GaussSeidel {
	s := &GaussSeidel{A: a, Omega: omega, Sym: sym}
	s.sw, _ = a.(sparse.Sweeper)
	if bd, ok := a.(sparse.BlockDiagonaler); ok && s.sw != nil {
		if blocks := bd.DiagBlocks(); blocks != nil {
			s.invBlk = invertDiagBlocks(blocks, bd.BlockSize())
			s.sum = make([]float64, bd.BlockSize())
		}
	}
	return s
}

// sweep delegates one SOR sweep to the storage's Sweeper capability,
// accumulating the reported flops.
func (s *GaussSeidel) sweep(x, b []float64, backward bool) {
	if s.sw == nil {
		panic("smooth: GaussSeidel needs the SOR-sweep capability (CSR or BSR)")
	}
	s.flops += s.sw.SORSweep(x, b, s.Omega, backward, s.invBlk, s.sum)
}

// Smooth implements Smoother.
func (s *GaussSeidel) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evGaussSeidel, s.task)
	f0 := s.flops
	for it := 0; it < n; it++ {
		s.sweep(x, b, false)
		if s.Sym {
			s.sweep(x, b, true)
		}
	}
	sp.EndFlops(s.flops - f0)
}

// Apply implements Smoother.
func (s *GaussSeidel) Apply(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	s.Smooth(z, r, 1)
}

// Flops implements Smoother.
func (s *GaussSeidel) Flops() int64 { return s.flops }

// Chebyshev is polynomial smoothing of fixed degree targeting the interval
// [lmax/alpha, lmax] of the spectrum of D⁻¹A.
type Chebyshev struct {
	taskRef
	A      sparse.Operator
	Degree int
	lmin   float64
	lmax   float64
	invD   []float64
	r, d   []float64 // sweep scratch, hoisted so Smooth never allocates
	flops  int64
}

// NewChebyshev estimates the largest eigenvalue of D⁻¹A with power
// iteration and targets [lmax/alpha, lmax]; alpha ≈ 30 is customary.
func NewChebyshev(a sparse.Operator, degree int, alpha float64) *Chebyshev {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			panic("smooth: zero diagonal")
		}
		inv[i] = 1 / v
	}
	// Power iteration on D^-1 A.
	n := a.Rows()
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
		if i%2 == 1 {
			v[i] = -v[i]
		}
	}
	lmax := 1.0
	for it := 0; it < 20; it++ {
		a.MulVec(v, w)
		for i := range w {
			w[i] *= inv[i]
		}
		nrm := la.Norm2(w)
		if nrm == 0 {
			break
		}
		lmax = nrm
		la.Scal(1/nrm, w)
		copy(v, w)
	}
	lmax *= 1.05 // safety factor
	return &Chebyshev{
		A: a, Degree: degree, lmin: lmax / alpha, lmax: lmax, invD: inv,
		r: make([]float64, n), d: make([]float64, n),
	}
}

// Smooth implements Smoother using the standard Chebyshev recurrence on the
// D⁻¹-preconditioned operator.
func (s *Chebyshev) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evChebyshev, s.task)
	f0 := s.flops
	for it := 0; it < n; it++ {
		s.apply(x, b)
	}
	sp.EndFlops(s.flops - f0)
}

func (s *Chebyshev) apply(x, b []float64) {
	nn := s.A.Rows()
	theta := (s.lmax + s.lmin) / 2
	delta := (s.lmax - s.lmin) / 2
	r, d := s.r, s.d
	s.A.Residual(b, x, r)
	sigma := theta / delta
	rho := 1 / sigma
	for i := 0; i < nn; i++ {
		d[i] = s.invD[i] * r[i] / theta
	}
	for k := 0; k < s.Degree; k++ {
		la.Axpy(1, d, x)
		if k == s.Degree-1 {
			break
		}
		s.A.Residual(b, x, r)
		rhoNew := 1 / (2*sigma - rho)
		for i := 0; i < nn; i++ {
			d[i] = rhoNew*rho*d[i] + 2*rhoNew/delta*s.invD[i]*r[i]
		}
		rho = rhoNew
		s.flops += s.A.MulVecFlops() + 6*int64(nn)
	}
	s.flops += s.A.MulVecFlops() + 4*int64(nn)
}

// Apply implements Smoother.
func (s *Chebyshev) Apply(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	s.apply(z, r)
}

// Flops implements Smoother.
func (s *Chebyshev) Flops() int64 { return s.flops }

// DomainBlockJacobi is the paper's subdomain smoother: the unknowns are
// partitioned into a few large blocks (METIS in the paper, the greedy
// graph partitioner here — "6 blocks for every 1,000 unknowns"), each
// diagonal block is factored with dense Cholesky at setup, and a sweep
// solves every block against the current residual simultaneously. Not to
// be confused with NodeBlockJacobi, whose blocks are the BxB nodal
// diagonal blocks of a vector-valued operator.
type DomainBlockJacobi struct {
	taskRef
	plan  *BlockPlan // shared, read-only
	A     sparse.Operator
	chols []*la.Cholesky
	work  []float64
	// The block solves of one application run side by side on the shared
	// worker set (pool.RunIndexed, item = block), so no two may share a
	// buffer: block bi gathers into scratch[off[bi]:off[bi+1]], and
	// ws[off[bi]:off[bi+1]] is its dofs again as the write set the
	// dispatch claims under promdebug.
	scratch []float64
	flops   int64
	// Omega damps the update x += Omega·M⁻¹r. Undamped block Jacobi can
	// diverge on stiff elasticity operators; AutoDamp sets Omega from a
	// power-iteration estimate of λmax(M⁻¹A) so the iteration contracts
	// and the preconditioner stays SPD. Default 1.
	Omega float64
	// SetupFlops records the factorization cost (the paper's "matrix
	// setup" phase includes the subdomain factorizations).
	SetupFlops int64
}

// BlockPlan is the partition half of a DomainBlockJacobi: the blocks and
// their write sets, the layout of the packed factors, and each dof's
// position inside its block, which the block gathers read. It depends on
// the partition only, so one plan serves every operator the partition was
// made for; it is read-only once made and shared by the smoothers Factor
// makes from it.
type BlockPlan struct {
	n      int
	blocks [][]int // dof indices per block
	ws     []int32
	off    []int
	// facOff places block bi's packed factor at [facOff[bi], facOff[bi+1]).
	facOff []int
	// pos[d] is dof d's position inside its own block: read-only, so every
	// block gathers through the one array.
	pos []int
	// solveWork is the multiply-adds of one application, Σ|block|²: what
	// the dispatch weighs against pool.Grain and, doubled, the flops every
	// application adds. factorWork is the factorizations' Σ|block|³/6.
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

// NewDomainBlockJacobi factors the diagonal blocks given by part
// (dof -> block) of view, a's scalar CSR form (a itself on CSR storage):
// PlanBlocks and Factor in one. The steady-state sweeps stay on the
// Operator interface.
func NewDomainBlockJacobi(a sparse.Operator, view *sparse.CSR, part []int, nblocks int) (*DomainBlockJacobi, error) {
	n := a.Rows()
	if len(part) != n || view.NRows != n {
		return nil, fmt.Errorf("smooth: partition covers %d and the scalar view %d of %d dofs", len(part), view.NRows, n)
	}
	return PlanBlocks(n, graph.PartMembers(part, nblocks)).Factor(a, view)
}

// PlanBlocks plans the smoother on n dofs with the given blocks (dof
// lists, each dof in at most one): write sets, positions and factor
// layout.
func PlanBlocks(n int, blocks [][]int) *BlockPlan {
	p := &BlockPlan{
		n: n, blocks: blocks, ws: make([]int32, 0, n), pos: make([]int, n),
		off: make([]int, len(blocks)+1), facOff: make([]int, len(blocks)+1),
	}
	for bi, dofs := range blocks {
		nb := len(dofs)
		for r, d := range dofs {
			p.pos[d] = r
			p.ws = append(p.ws, int32(d))
		}
		p.off[bi+1] = len(p.ws)
		p.facOff[bi+1] = p.facOff[bi] + la.PackedLen(nb)
		p.solveWork += nb * nb
		p.factorWork += nb * nb * nb / 6
		p.setupFlops += int64(nb) * int64(nb) * int64(nb) / 3
	}
	return p
}

// lowerGatherer is the block gather of the assembled storages
// (sparse.CSR, sparse.BSR).
type lowerGatherer interface {
	GatherLowerPacked(idx, pos []int, l []float64)
}

// Factor gathers every block from setup, the matrix the partition was
// made on (a, or the scalar matrix a was blocked from), and factors it;
// the smoother applies a. Blocks are independent, so the gathers and
// factorizations run on the shared worker set.
func (p *BlockPlan) Factor(a, setup sparse.Operator) (*DomainBlockJacobi, error) {
	g, ok := setup.(lowerGatherer)
	if !ok || setup.Rows() != p.n {
		return nil, fmt.Errorf("smooth: the block smoother gathers from assembled storage of %d rows, not %T", p.n, setup)
	}
	nblocks := len(p.blocks)
	s := &DomainBlockJacobi{
		plan: p, A: a, Omega: 1, SetupFlops: p.setupFlops,
		chols: make([]*la.Cholesky, nblocks),
		work:  make([]float64, p.n), scratch: make([]float64, p.n),
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
	// fac is the packed storage of every factor, block bi's triangle at
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
// blocks from setup (CSR or BSR), with the packed factors it writes, for
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
	for try, shift := 0, 0.0; ; try++ {
		f.setup.GatherLowerPacked(dofs, p.pos, l)
		maxDiag := shiftDiagonal(l, shift)
		chol, err := la.FactorPacked(len(dofs), l)
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

// shiftDiagonal adds shift to the diagonal of the packed lower triangle l
// and returns its largest unshifted diagonal entry, 1 when none is
// positive.
func shiftDiagonal(l []float64, shift float64) float64 {
	maxDiag := 0.0
	// Row p ends with its diagonal, at index p(p+3)/2: 0, 2, 5, 9, …
	for k, step := 0, 2; k < len(l); k, step = k+step, step+1 {
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

// AutoDamp estimates λmax(M⁻¹A) with a few power iterations and sets
// Omega = 1/λmax (with a small safety margin) so that every error mode
// contracts. Call once after construction.
func (s *DomainBlockJacobi) AutoDamp() {
	n := s.A.Rows()
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
		if i%3 == 1 {
			v[i] = -v[i]
		}
	}
	lmax := 1.0
	for it := 0; it < 12; it++ {
		s.A.MulVec(v, w)
		s.applyBlocks(w, w)
		nrm := la.Norm2(w)
		if nrm == 0 {
			break
		}
		lmax = nrm
		la.Scal(1/nrm, w)
		copy(v, w)
	}
	s.SetupFlops += int64(12) * (s.A.MulVecFlops() + 3*int64(n))
	s.Omega = 1 / (1.05 * lmax)
	if s.Omega > 1 {
		s.Omega = 1
	}
}

// Smooth implements Smoother: x += Omega·M⁻¹(b - A·x) with M the block
// diagonal.
func (s *DomainBlockJacobi) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evDomainBJ, s.task)
	f0 := s.flops
	for it := 0; it < n; it++ {
		s.A.Residual(b, x, s.work)
		s.applyBlocks(s.work, s.work)
		la.Axpy(s.Omega, s.work, x)
		s.flops += s.A.MulVecFlops() + 3*int64(len(x))
	}
	sp.EndFlops(s.flops - f0)
}

// applyBlocks solves M·z = r, every block against its own entries of r
// (r and z may alias): the blocks are the items of one indexed dispatch.
func (s *DomainBlockJacobi) applyBlocks(r, z []float64) {
	pool.RunIndexed(s.task, (*blockSolve)(s), r, z, len(s.plan.blocks), s.plan.solveWork)
	s.flops += 2 * int64(s.plan.solveWork)
}

// blockSolve is a DomainBlockJacobi seen as the pool.IndexedKernel of its
// block solves: item = block, write set = the block's dofs.
type blockSolve DomainBlockJacobi

// SolveKernel returns the block solves of one application as the indexed
// kernel applyBlocks dispatches, for TestKernelContract.
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

// Apply implements Smoother.
func (s *DomainBlockJacobi) Apply(r, z []float64) {
	s.applyBlocks(r, z)
	if !geom.ApproxEq(s.Omega, 1, 1e-15) {
		la.Scal(s.Omega, z)
	}
}

// Flops implements Smoother.
func (s *DomainBlockJacobi) Flops() int64 { return s.flops }

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

// NodeBlockJacobi is the paper's "block diagonal" smoother for
// vector-valued problems: M is the BxB nodal diagonal of a BSR operator
// (one 3x3 block per vertex for elasticity), inverted once at setup. A
// sweep is x += ω·M⁻¹·(b - A·x), with the block back-substitution fused
// into a register-resident loop — stronger than scalar Jacobi because it
// couples the components of each node, and allocation-free in steady
// state. Contrast DomainBlockJacobi, whose blocks are large graph-
// partitioned subdomains solved by dense Cholesky.
type NodeBlockJacobi struct {
	taskRef
	A      sparse.Operator // BSR level operator
	Omega  float64
	bs, nb int       // block size and block-row count of A
	invD   []float64 // inverted BxB diagonal blocks, packed row-major
	work   []float64
	flops  int64
}

// NewNodeBlockJacobi inverts the nodal diagonal blocks of an operator
// with the sparse.BlockDiagonaler capability (BSR). omega damps the update
// exactly as in scalar Jacobi (2/3 is customary in multigrid).
func NewNodeBlockJacobi(a sparse.Operator, omega float64) (*NodeBlockJacobi, error) {
	bd, ok := a.(sparse.BlockDiagonaler)
	if !ok {
		return nil, fmt.Errorf("smooth: NodeBlockJacobi needs the node-block diagonal capability")
	}
	blocks := bd.DiagBlocks()
	if blocks == nil {
		return nil, fmt.Errorf("smooth: NodeBlockJacobi: operator is not node-aligned")
	}
	bs := bd.BlockSize()
	return &NodeBlockJacobi{
		A:     a,
		Omega: omega,
		bs:    bs,
		nb:    a.Rows() / bs,
		invD:  invertDiagBlocks(blocks, bs),
		work:  make([]float64, a.Rows()),
	}, nil
}

// Smooth implements Smoother.
func (s *NodeBlockJacobi) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evNodeBJ, s.task)
	f0 := s.flops
	s.smooth(x, b, n)
	sp.EndFlops(s.flops - f0)
}

func (s *NodeBlockJacobi) smooth(x, b []float64, n int) {
	bs := s.bs
	bb := bs * bs
	nb := s.nb
	for it := 0; it < n; it++ {
		s.A.Residual(b, x, s.work)
		for ib := 0; ib < nb; ib++ {
			inv := s.invD[ib*bb : (ib+1)*bb : (ib+1)*bb]
			r := s.work[ib*bs : ib*bs+bs : ib*bs+bs]
			xr := x[ib*bs : ib*bs+bs : ib*bs+bs]
			for d := 0; d < bs; d++ {
				z := 0.0
				row := inv[d*bs : d*bs+bs]
				for c, vv := range row {
					z += vv * r[c]
				}
				xr[d] += s.Omega * z
			}
		}
		s.flops += s.A.MulVecFlops() + int64(nb)*int64(2*bb+2*bs)
	}
}

// Apply implements Smoother: z = ω·M⁻¹·r.
func (s *NodeBlockJacobi) Apply(r, z []float64) {
	bs := s.bs
	bb := bs * bs
	nb := s.nb
	for ib := 0; ib < nb; ib++ {
		inv := s.invD[ib*bb : (ib+1)*bb : (ib+1)*bb]
		rr := r[ib*bs : ib*bs+bs : ib*bs+bs]
		zr := z[ib*bs : ib*bs+bs : ib*bs+bs]
		for d := 0; d < bs; d++ {
			v := 0.0
			row := inv[d*bs : d*bs+bs]
			for c, vv := range row {
				v += vv * rr[c]
			}
			zr[d] = s.Omega * v
		}
	}
	s.flops += int64(nb) * int64(2*bb+bs)
}

// Flops implements Smoother.
func (s *NodeBlockJacobi) Flops() int64 { return s.flops }

// invertDiagBlocks inverts each packed BxB block in place-order via
// Gauss-Jordan with partial pivoting. Zero (absent) or singular blocks
// panic: a vector-valued operator with a singular nodal diagonal cannot be
// smoothed.
func invertDiagBlocks(blocks []float64, b int) []float64 {
	bb := b * b
	n := len(blocks) / bb
	out := make([]float64, len(blocks))
	m := make([]float64, bb)
	for ib := 0; ib < n; ib++ {
		copy(m, blocks[ib*bb:(ib+1)*bb])
		inv := out[ib*bb : (ib+1)*bb]
		for d := 0; d < b; d++ {
			inv[d*b+d] = 1
		}
		for col := 0; col < b; col++ {
			// Partial pivot.
			piv := col
			for r := col + 1; r < b; r++ {
				if math.Abs(m[r*b+col]) > math.Abs(m[piv*b+col]) {
					piv = r
				}
			}
			if m[piv*b+col] == 0 {
				panic(fmt.Sprintf("smooth: singular diagonal block at node %d", ib))
			}
			if piv != col {
				for c := 0; c < b; c++ {
					m[piv*b+c], m[col*b+c] = m[col*b+c], m[piv*b+c]
					inv[piv*b+c], inv[col*b+c] = inv[col*b+c], inv[piv*b+c]
				}
			}
			p := 1 / m[col*b+col]
			for c := 0; c < b; c++ {
				m[col*b+c] *= p
				inv[col*b+c] *= p
			}
			for r := 0; r < b; r++ {
				if r == col {
					continue
				}
				f := m[r*b+col]
				if f == 0 {
					continue
				}
				for c := 0; c < b; c++ {
					m[r*b+c] -= f * m[col*b+c]
					inv[r*b+c] -= f * inv[col*b+c]
				}
			}
		}
	}
	return out
}

// CGSmoother runs a fixed number of conjugate gradient iterations
// preconditioned by an inner smoother as one smoothing step. This is the
// literal reading of the paper's smoother ("one pre-smoothing and one
// post-smoothing step within multigrid, preconditioned with block Jacobi"):
// each smoothing step is a block-Jacobi-preconditioned CG iteration, which
// is self-scaling (no damping estimate needed) and strictly stronger than a
// stationary sweep. As a preconditioner it is slightly nonlinear, so the
// outer Krylov method must be flexible (krylov.FPCG).
type CGSmoother struct {
	taskRef
	A     sparse.Operator
	Inner Smoother
	Iters int // CG iterations per smoothing step (default 1)
	// CG vectors, hoisted so every smoothing step is allocation-free.
	r, z, p, ap []float64
	flops       int64
}

// NewCGSmoother wraps inner in a CG iteration.
func NewCGSmoother(a sparse.Operator, inner Smoother, iters int) *CGSmoother {
	if iters < 1 {
		iters = 1
	}
	nn := a.Rows()
	return &CGSmoother{
		A: a, Inner: inner, Iters: iters,
		r: make([]float64, nn), z: make([]float64, nn),
		p: make([]float64, nn), ap: make([]float64, nn),
	}
}

// Smooth implements Smoother: n×Iters preconditioned CG iterations
// continuing from the current x.
func (s *CGSmoother) Smooth(x, b []float64, n int) {
	s.SmoothResidual(x, b, n, false)
}

// SmoothResidual implements ResidualSmoother. The vector returned is the
// CG recurrence residual r, updated by r -= α·A·p in step with x += α·p: it
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
	for it := 0; it < n*s.Iters; it++ {
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
		if it == n*s.Iters-1 {
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

// Apply implements Smoother.
func (s *CGSmoother) Apply(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	s.SmoothResidual(z, r, 1, true)
}

// Flops implements Smoother: the CG iteration's own work plus the inner
// smoother's, which runs nowhere else.
func (s *CGSmoother) Flops() int64 { return s.flops + s.Inner.Flops() }

// SetTask attaches the request task to the outer iteration and, when
// the inner smoother supports attribution, forwards it there too.
func (s *CGSmoother) SetTask(t *obs.Task) {
	s.taskRef.SetTask(t)
	if ts, ok := s.Inner.(interface{ SetTask(*obs.Task) }); ok {
		ts.SetTask(t)
	}
}
