package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	prometheus "prometheus"
	"prometheus/internal/material"
	"prometheus/internal/obs"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// syncBuffer is a log sink the server's goroutines and the test share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPanicInsideSolveAnswers500: a panic inside a solve request is an
// answer, not a dropped connection. The caller gets 500 with the error
// envelope and the trace id of the Traceparent header, the operator gets
// one error record with the stack and a count on the route, and the
// request's admission slot, session and cache reference are released: the
// next request on a one-slot service is admitted.
func TestPanicInsideSolveAnswers500(t *testing.T) {
	obs.EnableWith(obs.Config{})
	defer obs.Disable()
	var logs syncBuffer
	svc, ts := newTestServer(t, Config{MaxConcurrent: 1, Log: slog.New(slog.NewJSONHandler(&logs, nil))})

	// A cache entry that claims to be built and has no solver: leasing a
	// preconditioner from it dereferences nil, after admission, session
	// and cache acquisition — the deepest a request can be when it panics.
	spec := Spec{Problem: "cube", Size: 1}
	g, err := BuildGeometry(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := solverOptions(1e-4, 1000, "fmg", "")
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint(opts.Coarsen)
	broken := &cacheEntry{key: cacheKey(fp, "fmg", opts), fp: fp, mgs: make(chan *lease, mgPoolCap)}
	broken.once.Do(func() {})
	svc.cache.entries[broken.key] = broken

	body, err := json.Marshal(SolveRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("a panicking request dropped the connection: %v", err)
	}
	defer hr.Body.Close()
	var envelope errorBody
	if err := json.NewDecoder(hr.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode the 500 body: %v", err)
	}
	traceID, _, ok := obs.ParseTraceparent(hr.Header.Get("Traceparent"))
	if hr.StatusCode != http.StatusInternalServerError || !ok || envelope.TraceID != traceID || !strings.Contains(envelope.Error, "panicked") {
		t.Fatalf("status %d, envelope %+v, traceparent %q; want 500 with the header's trace id", hr.StatusCode, envelope, hr.Header.Get("Traceparent"))
	}

	if held := svc.adm.held.Load(); held != 0 {
		t.Errorf("%d admission slots still held after the panic", held)
	}
	if h := svc.health(); h.ActiveSessions != 0 {
		t.Errorf("%d sessions still active after the panic", h.ActiveSessions)
	}
	svc.cache.mu.Lock()
	refs := broken.refs
	svc.cache.mu.Unlock()
	if refs != 0 {
		t.Errorf("the entry is still pinned by %d references after the panic", refs)
	}
	if next := postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cantilever", Size: 1}}); !next.Converged {
		t.Errorf("the request after the panic did not converge: %+v", next)
	}

	record := ""
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, `"msg":"panic"`) {
			record = line
		}
	}
	for _, want := range []string{`"level":"ERROR"`, `"route":"/v1/solve"`, `"trace_id":"` + traceID + `"`, "nil pointer dereference", "handleSolve"} {
		if !strings.Contains(record, want) {
			t.Errorf("the panic record lacks %s: %s", want, record)
		}
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	metrics, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`prometheus_serve_http_panics_total{route="/v1/solve"} 1`,
		`prometheus_serve_http_requests_total{route="/v1/solve",status="500"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// panickyOperator is a request's fine operator whose product runs on the
// shared worker set, as the assembled storages' does, with a kernel that
// panics on every chunk but the first: whichever participant draws one —
// a helper goroutine the request never started, or the handler's own —
// the panic has to come out of MulVec on the handler's goroutine.
type panickyOperator struct{ prometheus.Operator }

func (o panickyOperator) MulVec(x, y []float64) {
	pool.Run(o, x, y, len(y), 1, pool.Grain)
}

func (panickyOperator) MulVecRange(x, y []float64, lo, hi int) {
	if lo > 0 {
		panic("serve test: kernel panicked")
	}
}

// TestPanicInsideKernelAnswers500: a panic inside a kernel the worker set
// runs for a request is that request's 500, not the process's death: the
// set carries it back to the dispatching goroutine, where the recovering
// middleware answers it. The next request is served, and the set takes
// the next dispatch.
func TestPanicInsideKernelAnswers500(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	svc, ts := newTestServer(t, Config{MaxConcurrent: 1, Log: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	req := SolveRequest{Spec: Spec{Problem: "cube", Size: 1}}
	built := postSolve(t, ts, req)
	svc.cache.mu.Lock()
	entry := svc.cache.entries[built.Key]
	entry.kred = panickyOperator{entry.kred}
	svc.cache.mu.Unlock()

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("a request whose kernel panicked dropped the connection: %v", err)
	}
	defer hr.Body.Close()
	var envelope errorBody
	if err := json.NewDecoder(hr.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode the 500 body: %v", err)
	}
	if hr.StatusCode != http.StatusInternalServerError || envelope.TraceID == "" || !strings.Contains(envelope.Error, "panicked") {
		t.Fatalf("status %d, envelope %+v; want 500 with a trace id", hr.StatusCode, envelope)
	}
	if held := svc.adm.held.Load(); held != 0 {
		t.Errorf("%d admission slots still held after the panic", held)
	}
	if next := postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cantilever", Size: 1}}); !next.Converged {
		t.Errorf("the request after the panic did not converge: %+v", next)
	}
	// The set is not wedged: a dispatch above the grain returns.
	n := 64
	x, y := make([]float64, n), make([]float64, n)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		pool.Run(sparse.Identity(n), x, y, n, 1, pool.Grain)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker set did not take a dispatch after the panic")
	}
}

// TestPanicMidStreamAppendsEnvelope: once a streamed response has sent its
// status line a panic cannot answer 500 any more; what it can still do is
// end the stream with the error envelope as one more line.
func TestPanicMidStreamAppendsEnvelope(t *testing.T) {
	svc := New(Config{Log: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	defer svc.Close()
	h := svc.instrument("/test/stream", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if _, err := io.WriteString(w, "{\"iter\":0}\n"); err != nil {
			t.Error(err)
		}
		panic("serve test: panic after the first line")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/test/stream", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var envelope errorBody
	if rec.Code != http.StatusOK || len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &envelope) != nil || envelope.TraceID == "" {
		t.Fatalf("status %d, body %q; want 200 and the envelope as the second line", rec.Code, rec.Body.String())
	}
}

// gatedPanicModel is a material whose first stress update waits for the
// gate and then panics: a setup that fails as late and as badly as it can,
// at a moment the test chooses.
type gatedPanicModel struct {
	gate <-chan struct{}
}

func (m gatedPanicModel) Update(material.State, material.Voigt) (material.Voigt, material.Tangent, material.State) {
	<-m.gate
	panic("serve test: constitutive update panicked")
}

func (gatedPanicModel) Name() string { return "gated panic" }

// TestPanickingBuildReleasesWaiters: when the single-flight build of a
// cache entry panics, the panic unwinds through the one request that ran
// it, every request waiting on that build gets an error instead of a
// half-built entry, no reference stays behind and the key is not poisoned
// — the next request for it builds afresh.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	const requests = 4
	g, err := BuildGeometry(Spec{Problem: "cube", Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	healthy := g.Models
	gate := make(chan struct{})
	g.Models = []prometheus.Model{gatedPanicModel{gate}}
	opts := prometheus.Options{}
	fp := g.Fingerprint(opts.Coarsen)
	key := cacheKey(fp, "fmg", opts)
	c := newHierCache(4)

	var wg sync.WaitGroup
	panics := make([]interface{}, requests)
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			_, _, errs[i] = c.Acquire(key, fp, g, opts)
		}(i)
	}
	// Let the build go on only once every request holds its reference:
	// one is inside the build, the others wait on it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		e := c.entries[key]
		pinned := e != nil && e.refs == requests
		c.mu.Unlock()
		if pinned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the requests never all reached the entry")
		}
	}
	close(gate)
	wg.Wait()

	panicked, released := 0, 0
	for i := range panics {
		switch {
		case panics[i] != nil:
			panicked++
		case errors.Is(errs[i], errBuildPanicked):
			released++
		}
	}
	if panicked != 1 || released != requests-1 {
		t.Fatalf("%d requests panicked and %d were released with errBuildPanicked, want 1 and %d (panics %v, errors %v)",
			panicked, released, requests-1, panics, errs)
	}
	c.mu.Lock()
	_, kept := c.entries[key]
	c.mu.Unlock()
	if kept {
		t.Fatal("the failed entry stayed in the cache")
	}
	g.Models = healthy
	e, hit, err := c.Acquire(key, fp, g, opts)
	if err != nil || hit {
		t.Fatalf("rebuilding the key after the panic: hit=%v err=%v", hit, err)
	}
	c.Release(e)
}
