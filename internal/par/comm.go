// Package par is the message-passing substrate of the reproduction: the
// paper runs on MPI over a 960-processor IBM SMP cluster, which we simulate
// with P goroutine "ranks" communicating over channels. The parallel
// algorithms of the paper (the rank-based parallel MIS of section 4.2, the
// seeded parallel face identification of section 4.5, and row-partitioned
// matrix-vector products with halo exchange) run unchanged on this runtime.
//
// Every rank carries flop and traffic counters; the perf package converts
// the measured counts into the paper's efficiency metrics using a machine
// model calibrated to the paper's hardware.
package par

import (
	"fmt"
	"sync"

	"prometheus/internal/check"
	"prometheus/internal/obs"
)

// message is one point-to-point payload.
type message struct {
	tag  int
	data interface{}
}

// eventKind classifies one protocol event for the promdebug tracer. The
// kinds double as the alphabet of the per-rank collective sequences that
// the deadlock watchdog dumps and CollectiveTrace returns: every rank of
// a correct run executes the same kind sequence.
type eventKind uint8

const (
	evNone eventKind = iota
	evSend
	evRecv
	evBarrier
	evAllReduceSum
	evAllReduceIntSum
	evAllReduceMax
	evAllReduce
	evAllGather
)

// String returns the event name used in watchdog dumps and traces.
func (k eventKind) String() string {
	switch k {
	case evSend:
		return "send"
	case evRecv:
		return "recv"
	case evBarrier:
		return "barrier"
	case evAllReduceSum:
		return "allreduce-sum"
	case evAllReduceIntSum:
		return "allreduce-intsum"
	case evAllReduceMax:
		return "allreduce-max"
	case evAllReduce:
		return "allreduce"
	case evAllGather:
		return "allgather"
	}
	return "idle"
}

// isCollective reports whether the event is a collective operation (one
// that every rank must execute uniformly).
func (k eventKind) isCollective() bool {
	switch k {
	case evBarrier, evAllReduceSum, evAllReduceIntSum, evAllReduceMax, evAllReduce, evAllGather:
		return true
	}
	return false
}

// Comm is a communicator over a fixed number of ranks.
type Comm struct {
	size  int
	chans [][]chan message // chans[from][to]

	barrierMu    sync.Mutex
	barrierCount int
	barrierGen   int
	barrierCond  *sync.Cond

	reduceMu    sync.Mutex
	reduceBuf   []interface{}
	reduceGen   int
	reduceSlots map[int]*reduceSlot
	reduceCnd   *sync.Cond

	// Typed reducers back the per-iteration collectives
	// (AllReduceSum/AllReduceIntSum/AllReduceMax) without boxing or
	// per-round allocation; the interface-based allReduce remains for
	// the generic setup-path collectives (AllReduce/AllGatherAs).
	redSum    *reducer[float64]
	redMax    *reducer[float64]
	redIntSum *reducer[int]

	// trace is the promdebug protocol tracer and deadlock watchdog
	// (trace.go); in release builds it is an empty struct with no-op
	// methods, and every call site sits under if check.Enabled so the
	// hooks vanish entirely.
	trace tracer
}

// reducer is an allocation-free all-reduce over one value type and one
// fixed combine function. Results are published through a two-slot
// generation-parity ring: slot g&1 holds generation g's result, and it
// cannot be overwritten before generation g+2 completes, which requires
// every rank to have contributed to g+1, which requires every rank to
// have read g first — so a reader always finds its generation intact.
type reducer[T any] struct {
	mu      sync.Mutex
	cnd     *sync.Cond
	combine func(a, b T) T
	size    int
	count   int
	gen     int
	acc     T
	slots   [2]T
}

// newReducer builds a reducer for size ranks.
func newReducer[T any](size int, combine func(a, b T) T) *reducer[T] {
	rd := &reducer[T]{combine: combine, size: size}
	rd.cnd = sync.NewCond(&rd.mu)
	return rd
}

// all contributes v and returns the combined value once every rank has
// contributed. Contributions are combined in arrival order (matching
// the interface-based allReduce, whose rank order is also arrival
// order under the scheduler).
func (rd *reducer[T]) all(v T) T {
	rd.mu.Lock()
	gen := rd.gen
	if rd.count == 0 {
		rd.acc = v
	} else {
		rd.acc = rd.combine(rd.acc, v)
	}
	rd.count++
	if rd.count == rd.size {
		rd.slots[gen&1] = rd.acc
		rd.count = 0
		rd.gen++
		rd.cnd.Broadcast()
	} else {
		for rd.gen == gen {
			rd.cnd.Wait()
		}
	}
	out := rd.slots[gen&1]
	rd.mu.Unlock()
	return out
}

func addFloat64(a, b float64) float64 { return a + b }
func addInt(a, b int) int             { return a + b }
func maxFloat64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// reduceSlot holds one completed reduction until every rank has read it.
type reduceSlot struct {
	out     interface{}
	readers int
}

// NewComm returns a communicator with p ranks.
func NewComm(p int) *Comm {
	if p < 1 {
		panic("par: communicator needs at least one rank")
	}
	c := &Comm{size: p}
	c.chans = make([][]chan message, p)
	for i := range c.chans {
		c.chans[i] = make([]chan message, p)
		for j := range c.chans[i] {
			c.chans[i][j] = make(chan message, 1024)
		}
	}
	c.barrierCond = sync.NewCond(&c.barrierMu)
	c.reduceCnd = sync.NewCond(&c.reduceMu)
	c.reduceSlots = make(map[int]*reduceSlot)
	c.reduceBuf = make([]interface{}, 0, p)
	c.redSum = newReducer(p, addFloat64)
	c.redMax = newReducer(p, maxFloat64)
	c.redIntSum = newReducer(p, addInt)
	c.trace.init(p)
	return c
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Run executes fn concurrently on every rank and waits for all to finish.
// A panic in any rank is re-raised in the caller.
func (c *Comm) Run(fn func(r *Rank)) {
	var wg sync.WaitGroup
	panics := make([]interface{}, c.size)
	ranks := make([]*Rank, c.size)
	for id := 0; id < c.size; id++ {
		ranks[id] = &Rank{comm: c, id: id, pending: make([][]message, c.size)}
	}
	c.trace.runStart(c)
	for id := 0; id < c.size; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panics[id] = e
				}
			}()
			fn(ranks[id])
		}(id)
	}
	wg.Wait()
	c.trace.runEnd()
	for id, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("par: rank %d panicked: %v", id, p))
		}
	}
	if check.Enabled {
		// A message sent during this run and never received would stay in
		// its channel, which outlives the run, and open the first exchange
		// of the next Run on c.
		for to, r := range ranks {
			for from, q := range r.pending {
				select {
				case m := <-c.chans[from][to]:
					q = append(q, m)
				default:
				}
				if len(q) > 0 {
					panic(fmt.Sprintf("par: rank %d sent tag %d to rank %d, never received", from, q[0].tag, to))
				}
			}
		}
	}
}

// Rank is one simulated processor inside a Comm.Run call.
type Rank struct {
	comm    *Comm
	id      int
	pending [][]message // out-of-order receives, per source

	// Counters accumulated during the run; read them after Run returns.
	Flops     int64
	BytesSent int64
	MsgsSent  int64
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.size }

// CountFlops adds n to the rank's flop counter.
func (r *Rank) CountFlops(n int64) {
	r.Flops += n
	obs.AddFlops(obsRankEv, r.id, n)
}

// Send delivers data to rank "to" with the given tag. Sends are buffered
// and non-blocking up to a large channel capacity.
func (r *Rank) Send(to, tag int, data interface{}, bytes int) {
	if check.Enabled {
		r.comm.trace.event(r.id, evSend, to, tag)
	}
	if to == r.id {
		r.pending[r.id] = append(r.pending[r.id], message{tag: tag, data: data})
		return
	}
	r.MsgsSent++
	r.BytesSent += int64(bytes)
	obs.AddComm(obsRankEv, r.id, 1, int64(bytes))
	obsMsgSize.Observe(int64(bytes))
	r.comm.chans[r.id][to] <- message{tag: tag, data: data}
}

// RecvAs receives a message from rank "from" with the given tag and
// asserts its payload type, panicking with a diagnostic (rather than a
// bare type-assertion failure) on a protocol mismatch. It is the typed
// receive used on the hot communication paths.
func RecvAs[T any](r *Rank, from, tag int) T {
	raw := r.Recv(from, tag)
	v, ok := raw.(T)
	if !ok {
		panic(fmt.Sprintf("par: Recv(from=%d, tag=%d) on rank %d: payload is %T, want %T", from, tag, r.id, raw, v))
	}
	return v
}

// Recv blocks until a message with the given tag arrives from rank "from"
// and returns its payload. Messages with other tags from the same source
// are queued.
func (r *Rank) Recv(from, tag int) interface{} {
	if check.Enabled {
		r.comm.trace.block(r.id, evRecv, from, tag)
	}
	q := r.pending[from]
	for i, m := range q {
		if m.tag == tag {
			r.pending[from] = append(q[:i], q[i+1:]...)
			if check.Enabled {
				r.comm.trace.event(r.id, evRecv, from, tag)
			}
			return m.data
		}
	}
	for {
		m := <-r.comm.chans[from][r.id]
		if m.tag == tag {
			if check.Enabled {
				r.comm.trace.event(r.id, evRecv, from, tag)
			}
			return m.data
		}
		r.pending[from] = append(r.pending[from], m)
	}
}

// Barrier blocks until every rank has reached it.
func (r *Rank) Barrier() {
	if check.Enabled {
		r.comm.trace.block(r.id, evBarrier, -1, -1)
		defer r.comm.trace.event(r.id, evBarrier, -1, -1)
	}
	c := r.comm
	c.barrierMu.Lock()
	gen := c.barrierGen
	c.barrierCount++
	if c.barrierCount == c.size {
		c.barrierCount = 0
		c.barrierGen++
		c.barrierCond.Broadcast()
	} else {
		for gen == c.barrierGen {
			c.barrierCond.Wait()
		}
	}
	c.barrierMu.Unlock()
}

// allReduce gathers one contribution per rank, applies combine on rank
// order, and returns the result to every rank.
func (r *Rank) allReduce(v interface{}, combine func(acc, v interface{}) interface{}) interface{} {
	c := r.comm
	c.reduceMu.Lock()
	gen := c.reduceGen
	c.reduceBuf = append(c.reduceBuf, v)
	if len(c.reduceBuf) == c.size {
		acc := c.reduceBuf[0]
		for _, x := range c.reduceBuf[1:] {
			acc = combine(acc, x)
		}
		c.reduceSlots[gen] = &reduceSlot{out: acc, readers: c.size}
		c.reduceBuf = c.reduceBuf[:0]
		c.reduceGen++
		c.reduceCnd.Broadcast()
	} else {
		for c.reduceSlots[gen] == nil {
			c.reduceCnd.Wait()
		}
	}
	slot := c.reduceSlots[gen]
	out := slot.out
	slot.readers--
	if slot.readers == 0 {
		delete(c.reduceSlots, gen)
	}
	c.reduceMu.Unlock()
	return out
}

// AllReduce gathers one value of type T per rank, combines them in rank
// order, and returns the result to every rank. It is a package function
// rather than a method because Go methods cannot have type parameters;
// the typed combine keeps the collective hot paths free of naked
// interface assertions.
func AllReduce[T any](r *Rank, v T, combine func(a, b T) T) T {
	if check.Enabled {
		r.comm.trace.block(r.id, evAllReduce, -1, -1)
		defer r.comm.trace.event(r.id, evAllReduce, -1, -1)
	}
	return allReduceT(r, v, combine)
}

// allReduceT is AllReduce without the protocol-trace hook, so collectives
// built on top of it (AllGatherAs) record a single event of their own kind
// rather than a nested allreduce.
func allReduceT[T any](r *Rank, v T, combine func(a, b T) T) T {
	raw := r.allReduce(v, func(a, b interface{}) interface{} {
		av, aok := a.(T)
		bv, bok := b.(T)
		if !aok || !bok {
			panic(fmt.Sprintf("par: AllReduce on rank %d: mixed payload types %T and %T", r.id, a, b))
		}
		return combine(av, bv)
	})
	out, ok := raw.(T)
	if !ok {
		panic(fmt.Sprintf("par: AllReduce on rank %d: combined payload is %T, want %T", r.id, raw, out))
	}
	return out
}

// AllReduceSum returns the sum of v over all ranks. It is the
// per-iteration collective (global dot products), so it runs on a typed
// reducer: no boxing, no per-round allocation.
func (r *Rank) AllReduceSum(v float64) float64 {
	if check.Enabled {
		r.comm.trace.block(r.id, evAllReduceSum, -1, -1)
		defer r.comm.trace.event(r.id, evAllReduceSum, -1, -1)
	}
	return r.comm.redSum.all(v)
}

// AllReduceIntSum returns the integer sum of v over all ranks on the
// allocation-free typed path.
func (r *Rank) AllReduceIntSum(v int) int {
	if check.Enabled {
		r.comm.trace.block(r.id, evAllReduceIntSum, -1, -1)
		defer r.comm.trace.event(r.id, evAllReduceIntSum, -1, -1)
	}
	return r.comm.redIntSum.all(v)
}

// AllReduceMax returns the maximum of v over all ranks on the
// allocation-free typed path.
func (r *Rank) AllReduceMax(v float64) float64 {
	if check.Enabled {
		r.comm.trace.block(r.id, evAllReduceMax, -1, -1)
		defer r.comm.trace.event(r.id, evAllReduceMax, -1, -1)
	}
	return r.comm.redMax.all(v)
}

// gathered carries one rank's contribution through the gather reduction.
// It is declared at package level because Go does not allow type
// declarations that reference a function's type parameters inside the
// function body.
type gathered[T any] struct {
	id int
	v  T
}

// AllGatherAs collects one value of type T from each rank into a slice
// indexed by rank; every rank receives equal contents, with no boxing on
// the contribution path and no type assertions at the call site.
func AllGatherAs[T any](r *Rank, v T) []T {
	if check.Enabled {
		r.comm.trace.block(r.id, evAllGather, -1, -1)
		defer r.comm.trace.event(r.id, evAllGather, -1, -1)
	}
	res := allReduceT(r, []gathered[T]{{r.id, v}}, func(a, b []gathered[T]) []gathered[T] {
		// Copy before appending: contributions are shared across ranks, so
		// the combine must never mutate its operands' backing arrays.
		merged := make([]gathered[T], 0, len(a)+len(b))
		merged = append(merged, a...)
		return append(merged, b...)
	})
	out := make([]T, r.comm.size)
	for _, t := range res {
		out[t.id] = t.v
	}
	return out
}

// Counters holds the per-rank instrumentation gathered by RunCounted.
type Counters struct {
	Flops     []int64
	BytesSent []int64
	MsgsSent  []int64
}

// RunCounted is like Run but returns the per-rank counters.
func (c *Comm) RunCounted(fn func(r *Rank)) Counters {
	out := Counters{
		Flops:     make([]int64, c.size),
		BytesSent: make([]int64, c.size),
		MsgsSent:  make([]int64, c.size),
	}
	var mu sync.Mutex
	c.Run(func(r *Rank) {
		fn(r)
		mu.Lock()
		out.Flops[r.id] = r.Flops
		out.BytesSent[r.id] = r.BytesSent
		out.MsgsSent[r.id] = r.MsgsSent
		mu.Unlock()
	})
	return out
}
