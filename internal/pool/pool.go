// Package pool is the real-core shared-memory substrate of the solver:
// a fixed set of long-lived worker goroutines that execute row-partitioned
// kernels over disjoint index ranges. It is the first step of the
// ROADMAP's "real wall-clock scaling mode" — where internal/par models
// the paper's MPI ranks with message passing, pool runs actual
// runtime.NumCPU-wide data parallelism over shared vectors.
//
// Safety is checked by running the code (DESIGN.md §9):
//
//   - the Kernel contract — a kernel writes only inside its assigned
//     range — by TestKernelContract (kernel_contract_test.go at the module
//     root), which runs every Kernel in the tree over a sweep of windows
//     and through Dispatch, under the race detector too;
//   - the partition — Dispatch hands out a disjoint cover of [0, n) — by
//     TestDispatchCoversDomainOnce and, in promdebug builds, at every
//     dispatch: each worker claims its range in the check.Owners shadow
//     table before writing, so an overlapping claim panics with both
//     workers' stacks;
//   - operationally, dispatch is allocation-free in steady state: jobs
//     travel by value through a buffered channel, workers never die, and
//     there is no per-call goroutine churn.
package pool

import (
	"runtime"
	"sync"

	"prometheus/internal/check"
	"prometheus/internal/obs"
)

// Kernel is a row-partitioned compute kernel. MulVecRange must write
// exactly the rows y[lo:hi], must not write x or its own receiver, and
// must give a row the same bits whatever window it arrives in — the
// contract every sparse matrix type and fem.EBEOperator implements, and
// the one TestKernelContract checks for each of them.
type Kernel interface {
	MulVecRange(x, y []float64, lo, hi int)
}

// IndexedKernel is an item-partitioned compute kernel for work whose
// writes are disjoint but not contiguous: colored element batches, where
// item granularity is one element and the scatter touches the element's
// scattered dofs. ApplyOne must write y only at the indices WriteSet
// returns for the same item, and must not write x. Items dispatched in
// one DispatchIndexed call must have pairwise-disjoint write sets — the
// caller's coloring invariant; under promdebug every item's set is
// claimed in the ownership table, so a coloring bug panics with both
// workers' stacks at the first overlapping scatter.
type IndexedKernel interface {
	// ApplyOne processes item (accumulating into y at WriteSet(item)).
	ApplyOne(x, y []float64, item int)
	// WriteSet returns the y-indices ApplyOne(_, _, item) writes. The
	// returned slice must be immutable for the duration of the dispatch
	// (precomputed subslices, not per-call temporaries).
	WriteSet(item int) []int32
}

// job is one dispatched row range (k) or item range (ik). Jobs travel by
// value so a dispatch allocates nothing.
type job struct {
	k      Kernel
	ik     IndexedKernel
	x, y   []float64
	lo, hi int
	// task is the request scope the chunk's work is attributed to (nil
	// outside a served request). Jobs still travel by value.
	task *obs.Task
}

// Pool is a fixed-size set of long-lived workers. The zero value is not
// usable; construct with New. A Pool is safe for concurrent use —
// dispatches are serialized internally.
type Pool struct {
	mu   sync.Mutex
	jobs chan job
	done chan struct{}
	nw   int
	// own is the promdebug write-ownership sanitizer; in release builds
	// it is an empty struct and every call site sits under check.Enabled.
	own check.Owners
}

// New starts a pool of nw workers; nw < 1 means runtime.NumCPU().
func New(nw int) *Pool {
	if nw < 1 {
		nw = runtime.NumCPU()
	}
	p := &Pool{
		nw:   nw,
		jobs: make(chan job, nw),
		done: make(chan struct{}, nw),
	}
	if check.Enabled {
		p.own.Init(nw)
	}
	for w := 0; w < nw; w++ {
		go p.worker(w)
	}
	return p
}

// Workers returns the number of workers.
func (p *Pool) Workers() int { return p.nw }

// Sanitizer returns the pool's write-ownership table (promdebug builds;
// an inert empty struct otherwise), for tests and benchmarks that toggle
// the runtime checking.
func (p *Pool) Sanitizer() *check.Owners { return &p.own }

// Close shuts the workers down. The pool must be idle.
func (p *Pool) Close() { close(p.jobs) }

// worker executes jobs until the pool is closed. Worker w's writes are
// confined to y[lo:hi] of each job it receives: the kernel honors the
// Kernel contract (TestKernelContract), and under promdebug the range is
// claimed in the ownership table so overlap panics at the first racy
// dispatch rather than corrupting data silently.
func (p *Pool) worker(w int) {
	for j := range p.jobs {
		if j.ik != nil {
			p.runItems(w, j)
			p.done <- struct{}{}
			continue
		}
		if check.Enabled {
			p.own.Claim(w, j.y, j.lo, j.hi)
		}
		sp := obs.StartRankTask(evPoolTask, w, j.task)
		j.k.MulVecRange(j.x, j.y, j.lo, j.hi)
		sp.End()
		obs.AddCount(evPoolRows, w, int64(j.hi-j.lo))
		j.task.AddRows(int64(j.hi - j.lo))
		if check.Enabled {
			p.own.Release(w)
		}
		p.done <- struct{}{}
	}
}

// runItems executes one indexed job: items [lo, hi) in ascending order.
// Worker w's writes are confined to the union of the items' write sets —
// the IndexedKernel contract — and under promdebug each item's set is
// claimed in the ownership table around its apply, so two workers
// scattering to a shared index panic instead of racing.
func (p *Pool) runItems(w int, j job) {
	sp := obs.StartRankTask(evPoolTask, w, j.task)
	for e := j.lo; e < j.hi; e++ {
		if check.Enabled {
			p.own.ClaimIndices(w, j.y, j.ik.WriteSet(e))
			j.ik.ApplyOne(j.x, j.y, e)
			p.own.Release(w)
			continue
		}
		j.ik.ApplyOne(j.x, j.y, e)
	}
	sp.End()
	obs.AddCount(evPoolItems, w, int64(j.hi-j.lo))
	j.task.AddRows(int64(j.hi - j.lo))
}

// Dispatch partitions [0, n) into contiguous chunks aligned to align
// (block size for BSR kernels, 1 otherwise), runs k over the chunks on
// the workers, and returns when every row is written. The partition
// telescopes — each chunk starts where the previous ended, the first
// starts at 0, and the last is clamped to n — so the chunks are pairwise
// disjoint and cover [0, n) exactly (TestDispatchCoversDomainOnce; every
// chunk is claimed in check.Owners under promdebug). Small or misaligned
// problems fall back to a single serial call, which keeps results bitwise
// identical to the serial kernel for every pool size.
func (p *Pool) Dispatch(k Kernel, x, y []float64, n, align int) {
	p.DispatchTask(nil, k, x, y, n, align)
}

// DispatchTask is Dispatch with request-scoped attribution: the rows
// each worker executes are additionally credited to the task (nil t is
// exactly Dispatch). The partition, execution order and results are
// identical — the task only observes.
func (p *Pool) DispatchTask(t *obs.Task, k Kernel, x, y []float64, n, align int) {
	if n <= 0 {
		return
	}
	if align < 1 {
		align = 1
	}
	units := n / align
	nw := p.nw
	if nw > units {
		nw = units
	}
	if nw <= 1 {
		k.MulVecRange(x, y, 0, n)
		return
	}
	p.mu.Lock()
	q := units / nw
	r := units % nw
	lo := 0
	for w := 0; w < nw; w++ {
		u := q
		if w < r {
			u++
		}
		hi := lo + u*align
		if w == nw-1 {
			hi = n
		}
		p.jobs <- job{k: k, x: x, y: y, lo: lo, hi: hi, task: t}
		lo = hi
	}
	for w := 0; w < nw; w++ {
		<-p.done
	}
	p.mu.Unlock()
}

// DispatchIndexed partitions the items [0, m) into contiguous chunks,
// runs k over the chunks on the workers, and returns when every item is
// applied. The partition telescopes exactly like Dispatch's, so chunks
// are pairwise disjoint and cover [0, m); within a chunk items run in
// ascending order, and the single-worker fallback applies every item in
// the same ascending order, which keeps results bitwise identical to the
// serial kernel for every pool size when the caller's write sets are
// disjoint (each y index is written by at most one item, so the partition
// cannot reorder any index's accumulation).
func (p *Pool) DispatchIndexed(k IndexedKernel, x, y []float64, m int) {
	p.DispatchIndexedTask(nil, k, x, y, m)
}

// DispatchIndexedTask is DispatchIndexed with request-scoped
// attribution (see DispatchTask).
func (p *Pool) DispatchIndexedTask(t *obs.Task, k IndexedKernel, x, y []float64, m int) {
	if m <= 0 {
		return
	}
	nw := p.nw
	if nw > m {
		nw = m
	}
	if nw <= 1 {
		for e := 0; e < m; e++ {
			k.ApplyOne(x, y, e)
		}
		return
	}
	p.mu.Lock()
	q := m / nw
	r := m % nw
	lo := 0
	for w := 0; w < nw; w++ {
		u := q
		if w < r {
			u++
		}
		hi := lo + u
		if w == nw-1 {
			hi = m
		}
		p.jobs <- job{ik: k, x: x, y: y, lo: lo, hi: hi, task: t}
		lo = hi
	}
	for w := 0; w < nw; w++ {
		<-p.done
	}
	p.mu.Unlock()
}
