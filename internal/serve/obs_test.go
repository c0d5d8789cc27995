package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"prometheus/internal/obs"
)

// postSolveHeaders sends a solve request with extra headers and returns
// the decoded response plus the raw http.Response for header checks.
func postSolveHeaders(t *testing.T, ts *httptest.Server, req SolveRequest, hdr map[string]string) (SolveResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	hr, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer hr.Body.Close()
	var out SolveResponse
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		t.Fatalf("decode response (status %d): %v", hr.StatusCode, err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("solve returned status %d: %+v", hr.StatusCode, out)
	}
	return out, hr
}

// taskEvent reports whether a global obs event is one of the span sites
// that also credit the request task's flop counter: the Krylov solve
// span, the V-cycle apply span, and the smoother sweep spans.
func taskEvent(name string) bool {
	return name == "krylov.fpcg" || name == "mg.apply" || strings.HasPrefix(name, "smooth.")
}

// TestTaskAttribution is the tentpole invariant: two concurrent solves
// each get their own non-zero flop attribution, and because the task
// counters are credited at exactly the same EndFlops sites as the global
// event stats, the per-request totals sum to the global totals over
// those events — nothing double-counted, nothing lost.
func TestTaskAttribution(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})

	// Prewarm both cache entries (and their pooled MG instances) so the
	// measurement window below contains solve work only — no setup.
	specA := Spec{Problem: "cube", Size: 1}
	specB := Spec{Problem: "cantilever", Size: 1}
	postSolve(t, ts, SolveRequest{Spec: specA})
	postSolve(t, ts, SolveRequest{Spec: specB})

	obs.EnableWith(obs.Config{RingCap: 1 << 15})
	defer obs.Disable()

	var wg sync.WaitGroup
	results := make([]SolveResponse, 2)
	for i, spec := range []Spec{specA, specB} {
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			results[i] = postSolve(t, ts, SolveRequest{Spec: spec})
		}(i, spec)
	}
	wg.Wait()
	snap := obs.Snapshot()

	var taskSum int64
	for i, r := range results {
		if r.TaskFlops <= 0 {
			t.Fatalf("solve %d: TaskFlops = %d, want > 0", i, r.TaskFlops)
		}
		if r.TaskVCycles <= 0 {
			t.Fatalf("solve %d: TaskVCycles = %d, want > 0", i, r.TaskVCycles)
		}
		if r.TraceID == "" {
			t.Fatalf("solve %d: empty TraceID", i)
		}
		taskSum += r.TaskFlops
	}
	if results[0].TraceID == results[1].TraceID {
		t.Fatalf("concurrent solves share trace id %s", results[0].TraceID)
	}
	if results[0].TaskFlops == results[1].TaskFlops && results[0].Key == results[1].Key {
		t.Fatalf("suspicious: distinct problems, identical attribution %d", results[0].TaskFlops)
	}

	var globalSum int64
	for _, e := range snap.Events {
		if taskEvent(e.Name) {
			globalSum += e.Totals().Flops
		}
	}
	if globalSum <= 0 {
		t.Fatalf("global task-event flops = %d, want > 0", globalSum)
	}
	if taskSum != globalSum {
		t.Fatalf("per-task flops sum %d != global task-event flops %d (A=%d B=%d)",
			taskSum, globalSum, results[0].TaskFlops, results[1].TaskFlops)
	}
}

// TestTraceparentPropagation checks W3C trace context handling: a valid
// inbound traceparent's trace id is adopted (response header, response
// body and log line all carry it), while an invalid one is replaced by
// a freshly minted id of valid shape.
func TestTraceparentPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	// Pre-wrap the logger like promserve does: composed with the
	// server's own unconditional wrap this must stamp trace_id exactly
	// once (NewTraceHandler is idempotent).
	log := slog.New(NewTraceHandler(slog.NewJSONHandler(syncWriter{&logMu, &logBuf}, nil)))
	_, ts := newTestServer(t, Config{Log: log})

	const inTrace = "0af7651916cd43dd8448eb211c80319c"
	const inSpan = "b7ad6b7169203331"
	resp, hr := postSolveHeaders(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}},
		map[string]string{"traceparent": "00-" + inTrace + "-" + inSpan + "-01"})

	if resp.TraceID != inTrace {
		t.Fatalf("TraceID = %q, want adopted inbound %q", resp.TraceID, inTrace)
	}
	echo := hr.Header.Get("Traceparent")
	gotTrace, gotSpan, ok := obs.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response Traceparent %q does not parse", echo)
	}
	if gotTrace != inTrace {
		t.Fatalf("response Traceparent trace id %q, want %q", gotTrace, inTrace)
	}
	if gotSpan == inSpan {
		t.Fatalf("response span id %q echoes the inbound span id", gotSpan)
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, `"trace_id":"`+inTrace+`"`) {
		t.Fatalf("request log line lacks trace_id=%s:\n%s", inTrace, logged)
	}
	for _, line := range strings.Split(strings.TrimSpace(logged), "\n") {
		if n := strings.Count(line, `"trace_id":`); n > 1 {
			t.Fatalf("log line stamps trace_id %d times (double-wrapped handler):\n%s", n, line)
		}
	}

	resp2, hr2 := postSolveHeaders(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}},
		map[string]string{"traceparent": "00-" + strings.Repeat("0", 32) + "-" + inSpan + "-01"})
	if resp2.TraceID == "" || resp2.TraceID == strings.Repeat("0", 32) {
		t.Fatalf("invalid traceparent not replaced: TraceID = %q", resp2.TraceID)
	}
	if _, _, ok := obs.ParseTraceparent(hr2.Header.Get("Traceparent")); !ok {
		t.Fatalf("fresh response Traceparent %q does not parse", hr2.Header.Get("Traceparent"))
	}
	if resp2.TraceID == resp.TraceID {
		t.Fatalf("fresh trace id collides with previous request")
	}
}

// syncWriter serializes concurrent log writes in tests.
type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(b)
}

// TestServeCacheCounters drives the cache through cold → warm → evict
// and checks the /v1/cache counters: a first solve misses, a repeat
// hits, and a different geometry on a one-entry cache misses and evicts.
func TestServeCacheCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCacheEntries: 1})

	specA := Spec{Problem: "cube", Size: 1}
	specB := Spec{Problem: "cantilever", Size: 1}
	if r := postSolve(t, ts, SolveRequest{Spec: specA}); r.CacheHit {
		t.Fatalf("first solve reported a cache hit")
	}
	if r := postSolve(t, ts, SolveRequest{Spec: specA}); !r.CacheHit {
		t.Fatalf("repeat solve missed the cache")
	}
	if r := postSolve(t, ts, SolveRequest{Spec: specB}); r.CacheHit {
		t.Fatalf("new geometry reported a cache hit")
	}

	hr, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatalf("GET /v1/cache: %v", err)
	}
	defer hr.Body.Close()
	var body cacheBody
	if err := json.NewDecoder(hr.Body).Decode(&body); err != nil {
		t.Fatalf("decode cache body: %v", err)
	}
	if body.Hits != 1 || body.Misses != 2 || body.Evictions != 1 {
		t.Fatalf("cache counters hits=%d misses=%d evictions=%d, want 1/2/1",
			body.Hits, body.Misses, body.Evictions)
	}
	if len(body.Entries) != 1 {
		t.Fatalf("cache holds %d entries, want 1 after eviction", len(body.Entries))
	}
}

// TestServeObsOnOffIdentical checks that turning observability on does
// not perturb the numerics: the solution hash with obs recording every
// span and counter equals both the obs-off served hash and the direct
// solver's.
func TestServeObsOnOffIdentical(t *testing.T) {
	spec := Spec{Problem: "cube", Size: 1}
	uDirect, _, err := DirectSolve(spec, 1, 1e-4, 1000, "fmg", "", "")
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	want := SolutionHash(uDirect)

	obs.Disable()
	_, tsOff := newTestServer(t, Config{})
	off := postSolve(t, tsOff, SolveRequest{Spec: spec})

	obs.EnableWith(obs.Config{})
	defer obs.Disable()
	_, tsOn := newTestServer(t, Config{})
	on := postSolve(t, tsOn, SolveRequest{Spec: spec})

	if off.SolutionHash != want {
		t.Fatalf("obs-off hash %s, direct %s", off.SolutionHash, want)
	}
	if on.SolutionHash != want {
		t.Fatalf("obs-on hash %s, direct %s", on.SolutionHash, want)
	}
	if on.Iterations != off.Iterations {
		t.Fatalf("obs-on %d iterations, obs-off %d", on.Iterations, off.Iterations)
	}
	if on.TaskFlops <= 0 {
		t.Fatalf("obs-on TaskFlops = %d, want > 0", on.TaskFlops)
	}
	if off.TaskFlops != 0 {
		t.Fatalf("obs-off TaskFlops = %d, want 0", off.TaskFlops)
	}
}

// promLine matches one Prometheus text-format sample line:
// name{labels} value — where labels are comma-separated name="value"
// pairs, a value any quoted string (braces included, \" and \\ escaped),
// and the sample value an integer, float or +Inf.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?` +
	` (\+Inf|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

// TestPromLine pins the sample grammar TestMetricsEndpoint checks /metrics
// with: a route template's braces inside a quoted label value are valid,
// an unquoted brace, a label with no value and a malformed number are not.
func TestPromLine(t *testing.T) {
	for _, c := range []struct {
		line string
		ok   bool
	}{
		{`prometheus_obs_enabled 1`, true},
		{`prometheus_serve_http_requests_total{route="/v1/sessions/{id}/trace",status="200"} 0`, true},
		{`prometheus_serve_http_request_ns_bucket{route="/v1/solve",le="+Inf"} 2`, true},
		{`prometheus_pool_spin_seconds 1.5e-06`, true},
		{`m{path="a \"quoted\" {x}"} 3`, true},
		{`prometheus_serve_http_requests_total{route=/v1/sessions/{id}/trace} 0`, false},
		{`prometheus_serve_http_requests_total{route} 0`, false},
		{`prometheus_serve_http_requests_total{route="/v1/solve",status} 0`, false},
		{`prometheus_obs_enabled 1.2.3`, false},
		{`prometheus_obs_enabled --1`, false},
	} {
		if got := promLine.MatchString(c.line); got != c.ok {
			t.Errorf("promLine.MatchString(%q) = %v, want %v", c.line, got, c.ok)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after a request mix and checks
// the exposition: correct content type, every non-comment line in
// sample format, and the request counters present with labels.
func TestMetricsEndpoint(t *testing.T) {
	obs.EnableWith(obs.Config{})
	defer obs.Disable()
	_, ts := newTestServer(t, Config{})
	postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}})
	postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}})

	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want text/plain; version=0.0.4", ct)
	}
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	text := string(raw)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d is not a valid sample: %q", i+1, line)
		}
	}
	for _, want := range []string{
		"prometheus_obs_enabled 1",
		`prometheus_serve_http_requests_total{route="/v1/solve",status="200"} 2`,
		`prometheus_serve_solve_total{storage=`,
		"prometheus_serve_cache_misses_total 1",
		"prometheus_serve_cache_hits_total 1",
		`prometheus_serve_http_request_ns_bucket{`,
		"prometheus_multigrid_plan_built_total ",
		"prometheus_multigrid_plan_reused_total ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, text)
		}
	}
	// Histogram buckets must be cumulative and consistent with _count.
	if !strings.Contains(text, `le="+Inf"`) {
		t.Fatalf("/metrics histogram lacks +Inf bucket")
	}
}

// TestServeStopReason: why the Krylov iteration ended reaches the caller as
// the response's reason and the operator as a labelled /metrics counter; a
// solve that runs out of iterations answers 200 with converged=false, the
// reason max_iters and an error naming it.
func TestServeStopReason(t *testing.T) {
	obs.EnableWith(obs.Config{})
	defer obs.Disable()
	_, ts := newTestServer(t, Config{})
	done := postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}})
	if !done.Converged || done.Reason != "converged" || done.Error != "" {
		t.Fatalf("default solve: converged=%v reason=%q error=%q", done.Converged, done.Reason, done.Error)
	}
	short := postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 2}, RTol: 1e-12, MaxIters: 1})
	if short.Converged || short.Reason != "max_iters" || short.Iterations != 1 || !strings.Contains(short.Error, "max_iters") {
		t.Fatalf("rtol=1e-12, max_iters=1: converged=%v reason=%q iterations=%d error=%q", short.Converged, short.Reason, short.Iterations, short.Error)
	}
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, want := range []string{
		`prometheus_serve_solve_stops_total{reason="converged"} 1`,
		`prometheus_serve_solve_stops_total{reason="max_iters"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, raw)
		}
	}
}

// TestSessionTraceEndpoint checks the per-request Chrome-trace export:
// after an obs-on solve, /v1/sessions/{id}/trace returns that request's
// span events, and unknown ids 404.
func TestSessionTraceEndpoint(t *testing.T) {
	obs.EnableWith(obs.Config{})
	defer obs.Disable()
	_, ts := newTestServer(t, Config{})
	resp := postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}})

	hr, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/trace", ts.URL, resp.Session))
	if err != nil {
		t.Fatalf("GET session trace: %v", err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("session trace status %d", hr.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&doc); err != nil {
		t.Fatalf("decode chrome trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("session trace has no events")
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, span := range []string{"serve.load", "krylov.fpcg"} {
		if !seen[span] {
			t.Fatalf("session trace lacks the %s span; saw %v", span, seen)
		}
	}

	if hr2, err := http.Get(ts.URL + "/v1/sessions/999999/trace"); err != nil {
		t.Fatalf("GET unknown session trace: %v", err)
	} else {
		hr2.Body.Close()
		if hr2.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown session trace status %d, want 404", hr2.StatusCode)
		}
	}
}
