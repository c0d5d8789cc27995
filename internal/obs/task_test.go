package obs

import (
	"context"
	"strings"
	"testing"
)

// TestParseTraceparentRoundTrip checks that minted traceparents parse
// back to their own ids and that each mint is unique.
func TestParseTraceparentRoundTrip(t *testing.T) {
	tr, sp := NewTraceID(), NewSpanID()
	if len(tr) != 32 || len(sp) != 16 {
		t.Fatalf("id lengths %d/%d, want 32/16", len(tr), len(sp))
	}
	h := Traceparent(tr, sp)
	gotTr, gotSp, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("minted traceparent %q does not parse", h)
	}
	if gotTr != tr || gotSp != sp {
		t.Fatalf("round trip (%q, %q) != (%q, %q)", gotTr, gotSp, tr, sp)
	}
	if NewTraceID() == tr {
		t.Fatalf("two minted trace ids collide")
	}
}

// TestParseTraceparentRejects enumerates malformed headers: every one
// must be rejected, never half-parsed.
func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("reference header rejected")
	}
	bad := []string{
		"",
		"garbage",
		valid + "0",            // too long
		valid[:54],             // too short
		strings.ToUpper(valid), // uppercase hex
		"ff" + valid[2:],       // forbidden version
		"00-" + strings.Repeat("0", 32) + valid[35:],              // all-zero trace id
		valid[:36] + strings.Repeat("0", 16) + "-01",              // all-zero span id
		strings.Replace(valid, "-", "_", 1),                       // wrong separator
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", // non-hex
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Fatalf("malformed header %q accepted", h)
		}
	}
}

// TestNilTaskSafe checks every Task method is a safe no-op on nil —
// the untraced-path contract that lets solver code call task methods
// unconditionally.
func TestNilTaskSafe(t *testing.T) {
	var task *Task
	task.AddFlops(1)
	task.AddVCycles(1)
	task.AddIterations(1)
	task.AddRows(1)
	task.AddCacheHit()
	task.AddCacheMiss()
	if task.Flops() != 0 || task.VCycles() != 0 || task.Iterations() != 0 || task.Rows() != 0 {
		t.Fatalf("nil task reports non-zero counters")
	}
	if task.TraceID() != "" {
		t.Fatalf("nil task reports a trace id")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context yields task %v", got)
	}
	if got := FromContext(WithTask(context.Background(), nil)); got != nil {
		t.Fatalf("nil-task context yields task %v", got)
	}
}

// TestTaskGating checks the counters only accumulate while recording is
// on: tasks minted with obs off still carry a trace id (logging and
// traceparent echo need one) but never count.
func TestTaskGating(t *testing.T) {
	Disable()
	off := NewTask("")
	if off.TraceID() == "" {
		t.Fatalf("obs-off task has no trace id")
	}
	off.AddFlops(100)
	if off.Flops() != 0 {
		t.Fatalf("obs-off task counted %d flops", off.Flops())
	}

	EnableWith(Config{})
	defer Disable()
	on := NewTask("deadbeefdeadbeefdeadbeefdeadbeef")
	if on.TraceID() != "deadbeefdeadbeefdeadbeefdeadbeef" {
		t.Fatalf("explicit trace id not adopted: %q", on.TraceID())
	}
	on.AddFlops(100)
	on.AddVCycles(2)
	if on.Flops() != 100 || on.VCycles() != 2 {
		t.Fatalf("obs-on task counters %d/%d", on.Flops(), on.VCycles())
	}
}

// TestTaskSpansAndProfile checks that spans started with a task land in
// the task's private ring and surface through its Profile.
func TestTaskSpansAndProfile(t *testing.T) {
	EnableWith(Config{})
	defer Disable()
	ev := Register("obs.test.task_span")
	task := NewTask("")

	sp := StartTask(ev, task)
	sp.EndFlops(42)
	StartRankTask(ev, 1, task).End()

	if got := task.Flops(); got != 42 {
		t.Fatalf("task flops = %d, want 42", got)
	}
	if n := task.Spans(); n != 2 {
		t.Fatalf("task ring holds %d spans, want 2", n)
	}
	p := task.Profile()
	if len(p.Spans) != 2 {
		t.Fatalf("task profile holds %d spans, want 2", len(p.Spans))
	}
	if p.Spans[0].Name != "obs.test.task_span" {
		t.Fatalf("task span name %q", p.Spans[0].Name)
	}
	var flops int64
	for _, c := range p.Counters {
		if c.Name == "task.flops" {
			flops = c.Value
		}
	}
	if flops != 42 {
		t.Fatalf("task profile flops counter = %d, want 42", flops)
	}
	if task.Dropped() != 0 {
		t.Fatalf("task dropped %d spans unexpectedly", task.Dropped())
	}
}

// TestWritePrometheusFormat checks the exposition output shape without
// the HTTP layer: families typed, counters suffixed exactly once,
// histogram buckets cumulative and capped by +Inf == _count.
func TestWritePrometheusFormat(t *testing.T) {
	EnableWith(Config{})
	defer Disable()
	c := NewCounter("obs.test.prom.counter.total")
	c.Add(3)
	h := NewHistogram("obs.test.prom.hist")
	h.Observe(1)
	h.Observe(3)
	h.Observe(300)
	vec := NewCounterVec("obs.test.prom.vec", "kind")
	vec.With(`sp"icy\`).Inc()

	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, w := range []string{
		"# TYPE prometheus_obs_test_prom_counter_total counter",
		"prometheus_obs_test_prom_counter_total 3",
		"# TYPE prometheus_obs_test_prom_hist histogram",
		`prometheus_obs_test_prom_hist_bucket{le="1"} 1`,
		`prometheus_obs_test_prom_hist_bucket{le="3"} 2`,
		`prometheus_obs_test_prom_hist_bucket{le="+Inf"} 3`,
		"prometheus_obs_test_prom_hist_sum 304",
		"prometheus_obs_test_prom_hist_count 3",
		`prometheus_obs_test_prom_vec_total{kind="sp\"icy\\"} 1`,
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("exposition lacks %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "_total_total") {
		t.Fatalf("doubled _total suffix in exposition:\n%s", out)
	}
}
