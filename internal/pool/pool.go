// Package pool is the shared-memory runtime under every solve: a set of
// long-lived helper goroutines that execute row- and item-partitioned
// kernels beside the goroutine that dispatches them. There is one
// process-wide set (GOMAXPROCS-1 helpers; Run, RunResidual, RunIndexed and
// RunItems use it) and nothing to switch on: sparse.CSR.MulVec, BSR.MulVec,
// both Residuals, the sparse products, the block-Jacobi factorizations and
// solves and fem's element integration all dispatch through it, and two
// rules decide per operation whether the helpers are used at all.
//
//   - Grain: an operation whose serial work is below Grain multiply-adds
//     runs the kernel over its whole range on the caller. Handing a chunk
//     to a helper costs a wake-up, and a 0.1 ms product cannot pay for it.
//   - Busy: the shared set serves one dispatch at a time. A caller that
//     finds it taken (a second request, an internal/par rank) does not
//     wait: it runs its whole range itself, exactly the one-core path.
//
// Neither choice is visible in a result. A Kernel gives a row and an
// ItemKernel an item the same bits whatever window it arrives in, and an
// IndexedKernel's items have disjoint write sets, so who ran a chunk and how the range was cut move
// no bit; reductions (dots, norms) are never dispatched, so no summation
// order moves either (DESIGN.md §14).
//
// A dispatch cuts its range into a few chunks per participant and hands
// them out from an atomic cursor, so a participant that loses its core to
// another process costs the chunk it holds and no more. The dispatching
// goroutine takes chunks too, and waits only for helpers that have joined:
// one that was woken but never scheduled (more solves than cores) finds the
// dispatch closed when it arrives and holds nobody up, so a dispatch beside
// busy cores is the serial loop plus a wake-up. Helpers poll a quarter of a
// millisecond for the next dispatch before they park — a smoother sweep is
// a run of dispatches a few microseconds apart — yielding to anything else
// that is runnable while they do, and a panic inside a kernel on a helper is
// carried back and raised again on the dispatching goroutine, where a
// caller's recover (serve's middleware) can answer it.
//
// Safety is checked by running the code (DESIGN.md §9):
//
//   - the Kernel, IndexedKernel and ItemKernel contracts by TestKernelContract
//     (kernel_contract_test.go at the module root), which runs every
//     kernel in the tree over a sweep of windows and through Dispatch,
//     under the race detector too;
//   - the partition — a dispatch hands out a disjoint cover of [0, n) —
//     by TestDispatchCoversDomainOnce and, in promdebug builds, at every
//     dispatch: each participant claims its chunk in the check.Owners
//     shadow table before writing, so an overlapping claim panics with
//     both stacks;
//   - operationally, dispatch is allocation-free in steady state: the one
//     job in flight lives in the Pool, kernels are pointer-shaped, helpers
//     never die.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prometheus/internal/check"
	"prometheus/internal/obs"
)

// Kernel is a row-partitioned compute kernel. MulVecRange must write
// exactly the rows y[lo:hi], must not write x or its own receiver, and
// must give a row the same bits whatever window it arrives in — the
// contract every sparse matrix type implements, and the one
// TestKernelContract checks for each of them.
type Kernel interface {
	MulVecRange(x, y []float64, lo, hi int)
}

// ResidualKernel is the fused residual form of Kernel: ResidualRange
// writes r[i] = b[i] - (A·x)[i] for exactly the rows [lo, hi), under the
// same contract, reading b as well as x.
type ResidualKernel interface {
	ResidualRange(b, x, r []float64, lo, hi int)
}

// IndexedKernel is an item-partitioned compute kernel for work whose
// writes are disjoint but not contiguous: the block-Jacobi solves (item =
// block, write set = its dofs). ApplyOne must write y only at the indices
// WriteSet returns for the same item. Items dispatched in one call must
// have pairwise-disjoint write sets — the caller's partition invariant; under promdebug every item's set is claimed in the
// ownership table, so a bug there panics with both stacks at the first
// overlapping scatter. x may alias y when ApplyOne reads x only at the
// item's own write set.
type IndexedKernel interface {
	// ApplyOne processes item (writing y at WriteSet(item)).
	ApplyOne(x, y []float64, item int)
	// WriteSet returns the y-indices ApplyOne(_, _, item) writes. The
	// returned slice must be immutable for the duration of the dispatch
	// (precomputed subslices, not per-call temporaries).
	WriteSet(item int) []int32
}

// ItemKernel is a range-partitioned kernel whose results land in storage it
// owns rather than in a y vector: the symbolic and numeric passes of a
// sparse product (item = row of the result), element integration (item =
// element) and the block factorizations of the domain smoother (item =
// block). Items(w, lo, hi) must write
// exactly what items [lo, hi) own and give an item the same bits whatever
// range it arrives in. w is the calling participant's lane, in [0, Lanes):
// no two calls with the same lane overlap in time, so a kernel may keep
// per-lane scratch without locking.
type ItemKernel interface {
	Items(w, lo, hi int)
}

// Lanes bounds the lane an ItemKernel is called on.
const Lanes = maxParts

// Grain is the serial work, in multiply-adds (stored matrix entries for a
// product, factor entries for a block solve), below which the shared set
// is not used. It is a measurement, not a setting: see the grain table in
// EXPERIMENTS.md for the runs that chose it.
const Grain = 60_000

const (
	// chunksPerPart is how many chunks a dispatch cuts per participant:
	// enough that a participant which stalls holds a small share of the
	// range, few enough that the cursor is touched a handful of times.
	chunksPerPart = 4
	// spinFor bounds how long a helper polls for the next dispatch, and
	// the dispatcher for the helpers that joined, before parking. Waking a
	// parked goroutine costs tens of microseconds on this host, and the
	// stretches a solve spends between dispatches (dots, axpys, the levels
	// below the grain) are mostly shorter than this: without the spin the
	// 3 k-dof Newton-size solve runs slower pooled than serial, with it a
	// third faster (EXPERIMENTS.md, the grain table). spinBurst polls, a
	// microsecond or two, go between two looks at the clock and, for a
	// helper, between two yields to whatever else is runnable, so its spin
	// only ever burns an idle core.
	spinFor   = 250 * time.Microsecond
	spinBurst = 2048
	// maxParts bounds the participants of one dispatch: one obs lane each.
	maxParts = obs.MaxRanks
)

// job is the one dispatch in flight: a row range over k or rk, or an item
// range over ik or it. It lives in the Pool, written by the dispatcher under mu
// before the dispatch opens and read-only until the helpers that joined
// have left, so a dispatch allocates nothing.
type job struct {
	k       Kernel
	rk      ResidualKernel
	ik      IndexedKernel
	it      ItemKernel
	b, x, y []float64
	n       int // rows or items
	chunk   int // rows or items per chunk; the last chunk ends at n
	chunks  int
	// task is the request scope helper work is attributed to (nil outside
	// a served request).
	task *obs.Task
}

// Pool is a set of long-lived helpers plus whichever goroutine dispatches.
// The zero value is not usable; construct with New. A Pool is safe for
// concurrent use — dispatches are serialized internally.
type Pool struct {
	mu sync.Mutex
	// parts is the fixed participant count of a pool made by New; 0 marks
	// the shared set, which follows GOMAXPROCS.
	parts   int
	helpers int // started so far; lane numbers are 1..helpers

	job    job
	cursor atomic.Int64
	// gen numbers the dispatches: odd while one is open, even between two.
	// A helper joins the open dispatch by counting itself into joined and
	// then finding gen unchanged; the dispatcher closes (gen to even) and
	// then waits for joined to drain. Whichever of the two came second sees
	// the other, so a helper reads job only while the dispatcher waits for
	// it, and the dispatcher never waits for a helper that has not started.
	gen    atomic.Uint64
	joined atomic.Int32
	// parked counts the helpers blocked on wake (or about to be), and wake
	// carries a token for each the dispatcher decides to rouse. Tokens are
	// hints: a helper that finds nothing open goes back to waiting.
	parked atomic.Int32
	wake   chan struct{}
	// failed holds the first panic value a participant recovered during
	// the dispatch in flight.
	failMu sync.Mutex
	failed any
	// own is the promdebug write-ownership sanitizer; in release builds
	// it is an empty struct and every call site sits under check.Enabled.
	own check.Owners
}

func newPool(parts int) *Pool {
	p := &Pool{
		parts: parts,
		wake:  make(chan struct{}, maxParts),
	}
	if check.Enabled {
		p.own.Init(maxParts)
	}
	return p
}

// New starts a pool of nw participants — nw-1 helpers and the goroutine
// that calls Dispatch; nw < 1 means runtime.NumCPU(). It is the explicit
// form tests and benchmarks use to fix the width; product code dispatches
// on the shared set.
func New(nw int) *Pool {
	if nw < 1 {
		nw = runtime.NumCPU()
	}
	if nw > maxParts {
		nw = maxParts
	}
	p := newPool(nw)
	p.grow(nw - 1)
	return p
}

// shared is the process-wide set behind Run, RunResidual and RunIndexed.
var shared = newPool(0)

// Sanitizer returns the pool's write-ownership table (promdebug builds;
// an inert empty struct otherwise), for tests and benchmarks that toggle
// the runtime checking.
func (p *Pool) Sanitizer() *check.Owners { return &p.own }

// Close shuts the helpers down. The pool must be idle.
func (p *Pool) Close() { close(p.wake) }

// grow starts helpers until there are n. Callers hold mu or own p.
func (p *Pool) grow(n int) {
	for p.helpers < n {
		p.helpers++
		go p.helper(p.helpers)
	}
}

// helper runs on lane w until the pool is closed: wait for a dispatch to
// open, join it, take chunks until none are left, leave.
func (p *Pool) helper(w int) {
	var g uint64
	for {
		var ok bool
		if g, ok = p.next(g); !ok {
			return
		}
		p.joined.Add(1)
		if p.gen.Load() == g {
			p.help(w)
		}
		p.joined.Add(-1)
	}
}

// next waits for a dispatch other than seen to open and returns its gen,
// polling for spinFor before it parks: the next dispatch of a sweep is
// usually microseconds away, and a parked goroutine takes longer than that
// to wake. It reports false when the pool is closed.
func (p *Pool) next(seen uint64) (uint64, bool) {
	for {
		for start := time.Now(); time.Since(start) < spinFor; runtime.Gosched() {
			for i := 0; i < spinBurst; i++ {
				if g := p.gen.Load(); g&1 == 1 && g != seen {
					return g, true
				}
			}
		}
		// Announce, then look once more: a dispatch that opened before the
		// announcement is seen here, one that opens after it sees parked.
		p.parked.Add(1)
		if g := p.gen.Load(); g&1 == 1 && g != seen {
			p.parked.Add(-1)
			return g, true
		}
		_, ok := <-p.wake
		p.parked.Add(-1)
		if !ok {
			return 0, false
		}
	}
}

// drain waits for the helpers that joined the dispatch just closed. Each
// holds at most the chunk it is running, on a core of its own, so the wait
// is a poll; only past spinFor (a helper lost its core mid-chunk) does the
// dispatcher give up its own between looks.
func (p *Pool) drain() {
	for start := time.Now(); p.joined.Load() != 0; {
		for i := 0; i < spinBurst && p.joined.Load() != 0; i++ {
		}
		if time.Since(start) > spinFor {
			time.Sleep(spinFor / 8)
		}
	}
}

// help is one participant's share of the dispatch in flight, the
// dispatcher's included (lane 0). A kernel panic is kept for the
// dispatcher to raise once every participant has stopped, and ends the
// dispatch early: the cursor is moved past the last chunk so nobody starts
// another.
func (p *Pool) help(w int) {
	defer p.capture(w)
	if w == 0 {
		// The dispatcher's share sits inside the caller's own span.
		p.takeChunks(0)
		return
	}
	sp := obs.StartRankTask(evPoolTask, w, p.job.task)
	p.takeChunks(w)
	sp.End()
}

// capture is help's deferred half: it recovers a kernel panic on lane w
// and keeps the first one of the dispatch.
func (p *Pool) capture(w int) {
	v := recover()
	if v == nil {
		return
	}
	p.cursor.Store(int64(p.job.chunks))
	p.failMu.Lock()
	if p.failed == nil {
		p.failed = v
	}
	p.failMu.Unlock()
	if check.Enabled {
		p.own.Release(w)
	}
}

// takeChunks runs chunks of the dispatch in flight on lane w until the
// cursor passes the last one. Lane w's writes are confined to the chunks
// it drew: the kernels honor their contracts (TestKernelContract), and
// under promdebug each chunk (each item's write set) is claimed in the
// ownership table so overlap panics at the first racy dispatch rather than
// corrupting data silently. The rows or items it ran are counted on its
// lane, so the log view shows the balance, and credited to the task.
func (p *Pool) takeChunks(w int) {
	j := &p.job
	var ran int64
	for {
		c := int(p.cursor.Add(1)) - 1
		if c >= j.chunks {
			break
		}
		lo, hi := c*j.chunk, (c+1)*j.chunk
		if c == j.chunks-1 {
			hi = j.n
		}
		ran += int64(hi - lo)
		if j.it != nil {
			j.it.Items(w, lo, hi)
			continue
		}
		if j.ik != nil {
			for e := lo; e < hi; e++ {
				if check.Enabled {
					p.own.ClaimIndices(w, j.y, j.ik.WriteSet(e))
				}
				j.ik.ApplyOne(j.x, j.y, e)
				if check.Enabled {
					p.own.Release(w)
				}
			}
			continue
		}
		if check.Enabled {
			p.own.Claim(w, j.y, lo, hi)
		}
		if j.rk != nil {
			j.rk.ResidualRange(j.b, j.x, j.y, lo, hi)
		} else {
			j.k.MulVecRange(j.x, j.y, lo, hi)
		}
		if check.Enabled {
			p.own.Release(w)
		}
	}
	ev := evPoolRows
	if j.ik != nil || j.it != nil {
		ev = evPoolItems
	}
	obs.AddCount(ev, w, ran)
	j.task.AddRows(ran)
}

// serial runs j over its whole range on the calling goroutine: the path
// below the grain, beside a busy set and on one core, and the reference
// every dispatch is bitwise equal to.
func (j *job) serial() {
	switch {
	case j.it != nil:
		j.it.Items(0, 0, j.n)
	case j.ik != nil:
		for e := 0; e < j.n; e++ {
			j.ik.ApplyOne(j.x, j.y, e)
		}
	case j.rk != nil:
		j.rk.ResidualRange(j.b, j.x, j.y, 0, j.n)
	default:
		j.k.MulVecRange(j.x, j.y, 0, j.n)
	}
}

// dispatch runs j, whose n and kernel fields are set, over [0, n) in
// chunks aligned to align. With must the caller waits for the pool (the
// explicit Dispatch forms); without it a pool that is taken means the
// caller runs the range itself. Either way every row is written when it
// returns, and a panic inside the kernel — on any participant — is raised
// here with its original value once all of them have stopped, so none is
// still writing when the caller's recover runs.
func (p *Pool) dispatch(j job, align int, must bool) {
	align = max(1, align)
	parts := p.parts
	if parts == 0 {
		parts = min(runtime.GOMAXPROCS(0), maxParts)
	}
	units := j.n / align
	if parts < 2 || units < 2 {
		j.serial()
		return
	}
	switch {
	case must:
		p.mu.Lock()
	case p.mu.TryLock():
		mPooled.Inc()
	default:
		mBusy.Inc()
		j.serial()
		return
	}
	p.grow(parts - 1)
	per := max(1, units/(parts*chunksPerPart))
	j.chunk = per * align
	j.chunks = (units + per - 1) / per
	p.job = j
	p.cursor.Store(0)
	p.gen.Add(1) // open
	for h := min(min(parts, j.chunks)-1, int(p.parked.Load())); h > 0; h-- {
		select {
		case p.wake <- struct{}{}:
		default: // full of tokens nobody has come for yet
		}
	}
	p.help(0)
	p.gen.Add(1) // closed: the cursor is past the last chunk
	p.drain()
	p.job = job{}
	failed := p.failed
	p.failed = nil
	p.mu.Unlock()
	if failed != nil {
		panic(failed)
	}
}

// Dispatch partitions [0, n) into contiguous chunks aligned to align
// (block size for BSR kernels, 1 otherwise), runs k over the chunks on
// p's participants, and returns when every row is written. The partition
// telescopes — each chunk starts where the previous ended, the first
// starts at 0, and the last is clamped to n — so the chunks are pairwise
// disjoint and cover [0, n) exactly (TestDispatchCoversDomainOnce; every
// chunk is claimed in check.Owners under promdebug). Fewer than two units
// run as a single serial call. Results are bitwise identical to the
// serial kernel for every pool size.
func (p *Pool) Dispatch(k Kernel, x, y []float64, n, align int) {
	p.dispatch(job{k: k, x: x, y: y, n: n}, align, true)
}

// DispatchResidual is Dispatch for the fused residual r = b - A·x.
func (p *Pool) DispatchResidual(k ResidualKernel, b, x, r []float64, n, align int) {
	p.dispatch(job{rk: k, b: b, x: x, y: r, n: n}, align, true)
}

// DispatchIndexed partitions the items [0, m) into contiguous chunks,
// runs k over the chunks on p's participants, and returns when every item
// is applied. Within a chunk items run in ascending order, and the serial
// fallback applies every item in the same ascending order; since each y
// index is written by at most one item, the partition cannot reorder any
// index's accumulation and results are bitwise identical to the serial
// loop for every pool size.
func (p *Pool) DispatchIndexed(k IndexedKernel, x, y []float64, m int) {
	p.dispatch(job{ik: k, x: x, y: y, n: m}, 1, true)
}

// DispatchItems partitions the items [0, n) into contiguous chunks aligned
// to align, runs k over the chunks on p's participants, and returns when
// every item is done.
func (p *Pool) DispatchItems(k ItemKernel, n, align int) {
	p.dispatch(job{it: k, n: n}, align, true)
}

// run is the default path's decision, taken per operation on the shared
// set: below the grain the kernel runs serially, above it the helpers
// take part unless another dispatch holds them.
func run(j job, align, work int) {
	if work < Grain {
		mGrain.Inc()
		j.serial()
		return
	}
	shared.dispatch(j, align, false)
}

// Run computes rows [0, n) of k on the shared set: Dispatch with the
// grain and busy rules of the package comment. work is the operation's
// serial cost in multiply-adds.
func Run(k Kernel, x, y []float64, n, align, work int) {
	run(job{k: k, x: x, y: y, n: n}, align, work)
}

// RunResidual is Run for the fused residual r = b - A·x.
func RunResidual(k ResidualKernel, b, x, r []float64, n, align, work int) {
	run(job{rk: k, b: b, x: x, y: r, n: n}, align, work)
}

// RunItems runs items [0, n) of k on the shared set: DispatchItems with
// the grain and busy rules.
func RunItems(k ItemKernel, n, align, work int) {
	run(job{it: k, n: n}, align, work)
}

// RunIndexed applies items [0, m) of k on the shared set: DispatchIndexed
// with the grain and busy rules. t, which may be nil, is the request the
// work is attributed to.
func RunIndexed(t *obs.Task, k IndexedKernel, x, y []float64, m, work int) {
	run(job{ik: k, x: x, y: y, n: m, task: t}, 1, work)
}
