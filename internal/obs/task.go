package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
)

// Task is one request-scoped attribution scope: a W3C trace id plus a
// private set of counters and a private span capture buffer. A Task is
// threaded through the solve stack via context.Context (WithTask /
// FromContext) and credited at the same call sites that feed the
// process-global stats, so per-request totals and global totals are two
// views of the same recordings — never a second measurement.
//
// The type follows the package's recording discipline: counters are
// cache-line padded atomics, the span ring is preallocated at task
// creation, every mutation is gated on the global enable flag, and all
// methods are safe on a nil *Task (an uninstrumented call path costs a
// nil check). Overflowing the span ring drops the span from the task
// trace but counts the drop — never silent.
type Task struct {
	traceID string
	parent  string

	ring []traceEvent
	pos  atomic.Int64
	drop atomic.Int64

	ctrs [taskCtrCount]padCounter
}

// padCounter is an atomic counter padded out to its own cache line so
// concurrent goroutines crediting different counters of one task never
// false-share.
type padCounter struct {
	v atomic.Int64
	_ [7]int64
}

// Task counter slots. The set mirrors the attribution the paper's
// efficiency decomposition needs per run: arithmetic work, cycle and
// iteration counts, pool rows, and cache behaviour.
const (
	ctrFlops = iota
	ctrVCycles
	ctrIterations
	ctrRows
	ctrCacheHits
	ctrCacheMisses
	taskCtrCount
)

// taskRingCap is the per-task span capture capacity. A warm serve-path
// solve records a few hundred spans (outer iterations x cycle spans x
// smoother sweeps), so the default holds complete request traces while
// bounding per-request memory.
const taskRingCap = 4096

// NewTask creates a request scope. traceID is the W3C trace id to
// attribute recordings to; pass "" to mint a fresh random id. The span
// ring is only allocated while recording is enabled, so tasks created
// with obs off are a cheap id holder (trace ids must exist even when
// profiling is off — logging and traceparent echo depend on them).
func NewTask(traceID string) *Task {
	t := &Task{traceID: traceID}
	if t.traceID == "" {
		t.traceID = NewTraceID()
	}
	if on.Load() {
		t.ring = make([]traceEvent, taskRingCap)
	}
	return t
}

// SetParent records the caller's span id from an inbound traceparent
// header, so exported request traces can be stitched under the caller's
// span by external tooling.
func (t *Task) SetParent(spanID string) {
	if t != nil {
		t.parent = spanID
	}
}

// TraceID returns the task's trace id ("" on a nil task).
func (t *Task) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Parent returns the inbound parent span id, if one was set.
func (t *Task) Parent() string {
	if t == nil {
		return ""
	}
	return t.parent
}

// add credits one counter slot, gated exactly like the global stats.
func (t *Task) add(slot int, n int64) {
	if t == nil || n == 0 || !on.Load() {
		return
	}
	t.ctrs[slot].v.Add(n)
}

// AddFlops credits floating point operations to the task.
func (t *Task) AddFlops(n int64) { t.add(ctrFlops, n) }

// AddVCycles credits completed multigrid cycle applications.
func (t *Task) AddVCycles(n int64) { t.add(ctrVCycles, n) }

// AddIterations credits outer Krylov iterations.
func (t *Task) AddIterations(n int64) { t.add(ctrIterations, n) }

// AddRows credits worker-pool row assignments executed for the task.
func (t *Task) AddRows(n int64) { t.add(ctrRows, n) }

// AddCacheHit counts one hierarchy-cache hit for the task.
func (t *Task) AddCacheHit() { t.add(ctrCacheHits, 1) }

// AddCacheMiss counts one hierarchy-cache miss for the task.
func (t *Task) AddCacheMiss() { t.add(ctrCacheMisses, 1) }

// Flops returns the task's accumulated flop count.
func (t *Task) Flops() int64 { return t.value(ctrFlops) }

// VCycles returns the task's multigrid cycle count.
func (t *Task) VCycles() int64 { return t.value(ctrVCycles) }

// Iterations returns the task's outer Krylov iteration count.
func (t *Task) Iterations() int64 { return t.value(ctrIterations) }

// Rows returns the task's worker-pool row count.
func (t *Task) Rows() int64 { return t.value(ctrRows) }

// CacheHits returns the task's hierarchy-cache hit count.
func (t *Task) CacheHits() int64 { return t.value(ctrCacheHits) }

// CacheMisses returns the task's hierarchy-cache miss count.
func (t *Task) CacheMisses() int64 { return t.value(ctrCacheMisses) }

func (t *Task) value(slot int) int64 {
	if t == nil {
		return 0
	}
	return t.ctrs[slot].v.Load()
}

// record appends one completed span to the task's capture buffer and
// credits its flops. Called from Span.end, i.e. only while recording is
// enabled, on a non-nil task.
func (t *Task) record(ev traceEvent, flops int64) {
	if flops != 0 {
		t.ctrs[ctrFlops].v.Add(flops)
	}
	if t.ring == nil {
		t.drop.Add(1)
		return
	}
	p := t.pos.Add(1) - 1
	if p >= int64(len(t.ring)) {
		t.drop.Add(1)
		return
	}
	t.ring[p] = ev
}

// Dropped counts spans lost to a full (or never-allocated) task ring.
func (t *Task) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.drop.Load()
}

// Spans returns the number of spans captured in the task ring.
func (t *Task) Spans() int64 {
	if t == nil {
		return 0
	}
	n := t.pos.Load()
	if n > int64(len(t.ring)) {
		n = int64(len(t.ring))
	}
	return n
}

// Profile renders the task's recordings as a Profile, so PR 5's report
// writers (log view, JSON, Chrome trace) work unchanged on a single
// request: the /v1/sessions/{id}/trace endpoint is Task.Profile piped
// through WriteChromeTrace. Counter names carry a "task." prefix to
// keep them distinct from the process-global metric namespace.
func (t *Task) Profile() *Profile {
	p := &Profile{TotalNs: now(), Ranks: 1}
	if t == nil {
		return p
	}
	taskCounters := [taskCtrCount]string{
		ctrFlops:       "task.flops",
		ctrVCycles:     "task.vcycles",
		ctrIterations:  "task.iterations",
		ctrRows:        "task.pool.rows",
		ctrCacheHits:   "task.cache.hits",
		ctrCacheMisses: "task.cache.misses",
	}
	for slot, name := range taskCounters {
		if v := t.ctrs[slot].v.Load(); v != 0 {
			p.Counters = append(p.Counters, MetricValue{Name: name, Value: v})
		}
	}
	n := t.pos.Load()
	if n > int64(len(t.ring)) {
		n = int64(len(t.ring))
	}
	mu.Lock()
	for _, te := range t.ring[:n] {
		p.Spans = append(p.Spans, TraceSpan{
			Name:    names[te.id],
			Rank:    int(te.rank),
			Depth:   int(te.depth),
			StartNs: te.start,
			DurNs:   te.dur,
		})
		if int(te.rank)+1 > p.Ranks {
			p.Ranks = int(te.rank) + 1
		}
	}
	mu.Unlock()
	p.Dropped = t.drop.Load()
	return p
}

// taskKey is the context key type for task propagation.
type taskKey struct{}

// WithTask returns a context carrying the task. The serve handler
// attaches one task per request; every layer below recovers it with
// FromContext.
func WithTask(ctx context.Context, t *Task) context.Context {
	return context.WithValue(ctx, taskKey{}, t)
}

// FromContext returns the task carried by ctx, or nil. All Task
// methods accept the nil result, so callers never branch.
func FromContext(ctx context.Context) *Task {
	if ctx == nil {
		return nil
	}
	t, ok := ctx.Value(taskKey{}).(*Task)
	if !ok {
		return nil
	}
	return t
}

// idFallback derives distinct ids if the system randomness source is
// unavailable (never observed in practice; rand.Read on all supported
// platforms reads an OS source that cannot fail after boot).
var idFallback atomic.Int64

// randomHex returns n random bytes hex-encoded.
func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		s := strconv.FormatInt(idFallback.Add(1), 16)
		for len(s) < 2*n {
			s = "0" + s
		}
		return s[:2*n]
	}
	return hex.EncodeToString(b)
}

// NewTraceID mints a random 16-byte W3C trace id (32 lowercase hex).
func NewTraceID() string { return randomHex(16) }

// NewSpanID mints a random 8-byte W3C span id (16 lowercase hex).
func NewSpanID() string { return randomHex(8) }

// Traceparent formats a version-00 W3C traceparent header with the
// sampled flag set.
func Traceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent parses a version-00 W3C traceparent header into its
// trace id and parent span id. ok is false for malformed headers
// (wrong field count or width, non-hex digits, all-zero ids), in which
// case the caller should mint a fresh trace id.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	// Layout: 2 hex version, '-', 32 hex trace id, '-', 16 hex parent
	// span id, '-', 2 hex flags.
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	version := h[0:2]
	traceID = h[3:35]
	parentID = h[36:52]
	flags := h[53:55]
	if !isLowerHex(version) || !isLowerHex(traceID) || !isLowerHex(parentID) || !isLowerHex(flags) {
		return "", "", false
	}
	if version == "ff" || allZero(traceID) || allZero(parentID) {
		return "", "", false
	}
	return traceID, parentID, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
