// Package obs is the solver's observability subsystem: a span/event
// tracer, a registry of typed metrics, and reporters that render PETSc
// -log_view-style tables, JSON profiles and Chrome trace_event files.
//
// The package is stdlib-only and follows the allocation-free discipline
// of internal/par/trace.go: every hot-path operation (Start/End spans,
// counter updates, comm byte accounting) is a handful of atomic ops on
// preallocated storage. A single atomic enable flag gates all recording,
// so instrumented kernels stay zero-alloc and effectively free when
// profiling is off — there is no build tag to flip and no wrapper to
// swap; obs.Start returns an inert Span when disabled.
//
// Event and metric names are package-unique string constants registered
// once at package init (the obs-discipline lint rule enforces this), so
// recording never formats strings.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// MaxRanks bounds per-rank attribution. Ranks at or above the bound
// still run correctly; their samples are counted as dropped.
const MaxRanks = 64

// maxEvents bounds the registry. Registration panics beyond it; event
// IDs index fixed arrays so recording needs no bounds branching.
const maxEvents = 128

// EventID identifies a registered span/event. IDs are dense indices
// into per-event stat tables.
type EventID int32

// eventStats accumulates one event's totals on one rank. All fields
// are atomics so rank goroutines record concurrently without locks.
type eventStats struct {
	timeNs atomic.Int64
	count  atomic.Int64
	flops  atomic.Int64
	msgs   atomic.Int64
	bytes  atomic.Int64
}

// traceEvent is one completed span in a rank's capture buffer.
type traceEvent struct {
	start int64 // ns since epoch
	dur   int64 // ns
	id    EventID
	rank  int32
	depth int32
}

// Config sizes the capture buffers allocated by EnableWith.
type Config struct {
	// Ranks is the number of ranks to allocate trace buffers for
	// (default 16). Per-event stats always cover MaxRanks.
	Ranks int
	// RingCap is the per-rank trace buffer capacity in events
	// (default 4096). Once full, further spans update stats but are
	// dropped from the trace; drops are counted, never silent.
	RingCap int
	// ResidCap caps the recorded convergence history (default 4096).
	ResidCap int
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 16
	}
	if c.Ranks > MaxRanks {
		c.Ranks = MaxRanks
	}
	if c.RingCap <= 0 {
		c.RingCap = 4096
	}
	if c.ResidCap <= 0 {
		c.ResidCap = 4096
	}
	return c
}

var (
	on atomic.Bool

	// mu guards registration, enable/disable and the slow aggregation
	// paths (Snapshot, RecordLevel). The record fast paths never take it.
	mu    sync.Mutex
	names []string
	ids   map[string]EventID

	stats [maxEvents][MaxRanks]eventStats

	rings   [][]traceEvent // [rank][slot], allocated by Enable
	ringPos [MaxRanks]atomic.Int64
	dropped [MaxRanks]atomic.Int64
	depth   [MaxRanks]atomic.Int32

	epoch time.Time
)

// now is the monotonic clock: ns since the profile epoch. time.Since
// reads the monotonic reading of epoch, so wall-clock steps never skew
// durations, and the call is allocation-free.
func now() int64 { return int64(time.Since(epoch)) }

// On reports whether recording is enabled. Instrumented kernels may
// use it to skip argument computation; Start/End and the metric types
// already check it internally.
func On() bool { return on.Load() }

// Enable turns recording on with default buffer sizes.
func Enable() { EnableWith(Config{}) }

// EnableWith allocates capture buffers per cfg, resets all recorded
// data and turns recording on. Safe to call again; buffers are
// reallocated only when the requested sizes change.
func EnableWith(cfg Config) {
	cfg = cfg.withDefaults()
	mu.Lock()
	defer mu.Unlock()
	if len(rings) != cfg.Ranks || len(rings[0]) != cfg.RingCap {
		rings = make([][]traceEvent, cfg.Ranks)
		for r := range rings {
			rings[r] = make([]traceEvent, cfg.RingCap)
		}
	}
	if len(resid) != cfg.ResidCap {
		resid = make([]ResidualPoint, cfg.ResidCap)
	}
	resetLocked()
	on.Store(true)
}

// Disable turns recording off. Recorded data stays available to
// Snapshot until the next Enable or Reset.
func Disable() { on.Store(false) }

// Reset clears all recorded data (stats, traces, metrics, residual
// history, level info) and restarts the profile epoch. Registrations
// survive. Callable while enabled, e.g. between benchmark phases.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	resetLocked()
}

func resetLocked() {
	for e := range names {
		for r := 0; r < MaxRanks; r++ {
			st := &stats[e][r]
			st.timeNs.Store(0)
			st.count.Store(0)
			st.flops.Store(0)
			st.msgs.Store(0)
			st.bytes.Store(0)
		}
	}
	for r := 0; r < MaxRanks; r++ {
		ringPos[r].Store(0)
		dropped[r].Store(0)
		depth[r].Store(0)
	}
	residPos.Store(0)
	levels = levels[:0]
	resetMetricsLocked()
	epoch = time.Now()
}

// Register interns an event name and returns its ID. Idempotent:
// re-registering a name returns the existing ID. Call from package
// variable initializers with a string constant; the obs-discipline
// lint rule rejects computed names.
func Register(name string) EventID {
	mu.Lock()
	defer mu.Unlock()
	if ids == nil {
		ids = make(map[string]EventID)
	}
	if id, ok := ids[name]; ok {
		return id
	}
	if len(names) >= maxEvents {
		panic("obs: event registry full (maxEvents)")
	}
	id := EventID(len(names))
	names = append(names, name)
	ids[name] = id
	return id
}

// Span is an open interval returned by Start. It is a value type: no
// allocation, safe to copy. A Span from a disabled Start is inert and
// End on it is a no-op, so callers never branch on On themselves.
type Span struct {
	start int64
	id    EventID
	rank  int32
	depth int32
	task  *Task
}

// Start opens a span for id on rank 0 (the serial/driver rank).
func Start(id EventID) Span { return StartRankTask(id, 0, nil) }

// StartRank opens a span for id attributed to the given rank. Rank
// goroutines (halo exchange, reducers) use this so the trace timeline
// and the per-rank stat rows line up with the SPMD decomposition.
func StartRank(id EventID, rank int) Span { return StartRankTask(id, rank, nil) }

// StartTask opens a span on rank 0 additionally attributed to a
// request task: End credits the global per-rank stats exactly as Start
// does, and also appends the span (and its flops) to the task. A nil
// task makes StartTask identical to Start, so instrumented call sites
// never branch on whether a request scope is present.
func StartTask(id EventID, t *Task) Span { return StartRankTask(id, 0, t) }

// StartRankTask is StartRank with request-task attribution (see
// StartTask).
func StartRankTask(id EventID, rank int, t *Task) Span {
	if !on.Load() || rank < 0 || rank >= MaxRanks {
		return Span{rank: -1}
	}
	d := depth[rank].Add(1) - 1
	return Span{start: now(), id: id, rank: int32(rank), depth: d, task: t}
}

// End closes the span, accumulating its duration and count into the
// event's per-rank stats and appending it to the rank's trace buffer.
func (s Span) End() { s.end(0) }

// EndFlops closes the span and additionally credits flops floating
// point operations to the event on the span's rank.
func (s Span) EndFlops(flops int64) { s.end(flops) }

func (s Span) end(flops int64) {
	if s.rank < 0 {
		return
	}
	dur := now() - s.start
	depth[s.rank].Add(-1)
	st := &stats[s.id][s.rank]
	st.timeNs.Add(dur)
	st.count.Add(1)
	if flops != 0 {
		st.flops.Add(flops)
	}
	ev := traceEvent{start: s.start, dur: dur, id: s.id, rank: s.rank, depth: s.depth}
	if s.task != nil {
		s.task.record(ev, flops)
	}
	r := int(s.rank)
	if r >= len(rings) {
		dropped[r].Add(1)
		return
	}
	ring := rings[r]
	p := ringPos[r].Add(1) - 1
	if p >= int64(len(ring)) {
		dropped[r].Add(1)
		return
	}
	ring[p] = ev
}

// AddFlops credits flops to an event on a rank without a span, for
// call sites that account work outside a timed region. A registered
// event's id is always below maxEvents; checking it anyway lets the
// compiler prove the table index wherever AddFlops is inlined, such as
// par's Comm.AddFlops.
func AddFlops(id EventID, rank int, flops int64) {
	if !on.Load() || uint32(id) >= maxEvents || rank < 0 || rank >= MaxRanks {
		return
	}
	stats[id][rank].flops.Add(flops)
}

// AddCount credits n occurrences to an event on a rank without opening
// a span. The worker pool uses it to count rows assigned per worker, so
// the log view exposes partition balance without timing every chunk
// twice.
func AddCount(id EventID, rank int, n int64) {
	if !on.Load() || rank < 0 || rank >= MaxRanks {
		return
	}
	stats[id][rank].count.Add(n)
}

// AddComm credits message and byte counts to an event on a rank. The
// par communicator calls this once per posted message, so per-rank
// traffic is measured rather than modeled.
func AddComm(id EventID, rank int, msgs, bytes int64) {
	if !on.Load() || rank < 0 || rank >= MaxRanks {
		return
	}
	st := &stats[id][rank]
	st.msgs.Add(msgs)
	st.bytes.Add(bytes)
}
