package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// openBooks lists what a finished request left behind: an admission slot
// still held or a token missing from the channel, a request still waiting
// for a slot, an active session, a cache entry still referenced or one
// without a lease in its idle pool. handleSolve gives each acquisition
// back with one defer; the message names it.
func openBooks(t *testing.T, svc *Server, ts *httptest.Server) []string {
	t.Helper()
	var open []string
	if held := svc.adm.held.Load(); held != 0 {
		open = append(open, fmt.Sprintf("%d admission slot(s) held (adm.Release not run)", held))
	}
	if free := len(svc.adm.tokens); free != svc.cfg.MaxConcurrent {
		open = append(open, fmt.Sprintf("%d of %d admission tokens in the channel", free, svc.cfg.MaxConcurrent))
	}
	if waiting := svc.adm.waiting.Load(); waiting != 0 {
		open = append(open, fmt.Sprintf("%d request(s) still waiting for a slot", waiting))
	}
	var sb sessionsBody
	getJSON(t, ts.URL+"/v1/sessions", &sb)
	for _, s := range sb.Active {
		open = append(open, fmt.Sprintf("session %d still active (sessions.Checkin not run)", s.ID))
	}
	var cb cacheBody
	getJSON(t, ts.URL+"/v1/cache", &cb)
	for _, e := range cb.Entries {
		if e.Refs != 0 {
			open = append(open, fmt.Sprintf("cache entry %s has refs %d (cache.Release not run)", e.Key, e.Refs))
		}
		if e.IdleMGs < 1 {
			open = append(open, fmt.Sprintf("cache entry %s has idle_mgs %d (entry.Checkin not run)", e.Key, e.IdleMGs))
		}
	}
	return open
}

// closedBooks requires the books to close after one exit of handleSolve.
// The handler's defers run after its response is written, so the client
// may hold the body a moment before the last release; what is still open
// after ten seconds is reported against the exit.
func closedBooks(t *testing.T, svc *Server, ts *httptest.Server, exit string) {
	t.Helper()
	open := openBooks(t, svc, ts)
	for deadline := time.Now().Add(10 * time.Second); len(open) > 0 && time.Now().Before(deadline); open = openBooks(t, svc, ts) {
		time.Sleep(time.Millisecond)
	}
	for _, o := range open {
		t.Errorf("after %s: %s", exit, o)
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// postBody sends a raw solve body and returns the status and the body.
func postBody(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, string(raw)
}

// seedEntry puts an entry for the spec into the cache whose single-flight
// build has already run fill instead of the real build, so the next
// request for that key meets what fill left behind.
func seedEntry(t *testing.T, svc *Server, spec Spec, fill func(*cacheEntry)) *cacheEntry {
	t.Helper()
	g, err := BuildGeometry(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := &cacheEntry{key: g.Fingerprint(solverOptions(1e-4, 1000).Coarsen), mgs: make(chan *lease, mgPoolCap)}
	e.once.Do(func() { fill(e) })
	svc.cache.mu.Lock()
	svc.cache.entries[e.key] = e
	svc.cache.mu.Unlock()
	return e
}

// TestHandleSolveClosesTheBooks drives every exit of handleSolve a request
// can reach — a 405, malformed and invalid bodies, a 503 on a saturated
// service, a waiting request whose client goes away, a failed and a
// panicking build, a cold and a warm 200 — and after each requires
// everything the handler took to be back (openBooks). Each of the four
// acquisitions — admission slot, session, cache reference, preconditioner
// lease — is given back by one defer, and removing any of them fails this
// test with a message naming it.
func TestHandleSolveClosesTheBooks(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxConcurrent: 2, Log: slog.New(slog.NewJSONHandler(io.Discard, nil))})

	hr, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	if err := hr.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status %d, want 405", hr.StatusCode)
	}
	closedBooks(t, svc, ts, "a 405")

	for _, tc := range []struct{ exit, body, names string }{
		{"a bad body", `{"problem":`, "bad request body"},
		{"trailing data", `{"problem":"cube","size":1}]`, "trailing"},
		{"an invalid rtol", `{"problem":"cube","size":1,"rtol":1}`, "rtol"},
		{"a retired field", `{"problem":"cube","size":1,"cycle":"v"}`, "cycle"},
	} {
		if status, body := postBody(t, ts, tc.body); status != http.StatusBadRequest || !strings.Contains(body, tc.names) {
			t.Fatalf("%s: status %d body %q, want 400 naming %q", tc.exit, status, body, tc.names)
		}
		closedBooks(t, svc, ts, tc.exit)
	}

	// Saturate the service: a request that does not wait is shed, one that
	// waits leaves when its client goes away. The slots also go back at
	// cleanup, so a handler left waiting cannot hold the test server open.
	taken := 0
	t.Cleanup(func() {
		for ; taken > 0; taken-- {
			svc.adm.Release()
		}
	})
	for svc.adm.Acquire(context.Background(), false) == nil {
		taken++
	}
	if status, body := postBody(t, ts, `{"problem":"cube","size":1}`); status != http.StatusServiceUnavailable || !strings.Contains(body, "busy") {
		t.Fatalf("a saturated service: status %d body %q, want 503 busy", status, body)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve",
			strings.NewReader(`{"problem":"cube","size":1,"wait":true}`))
		if err == nil {
			var hr *http.Response
			if hr, err = http.DefaultClient.Do(req); err == nil {
				_ = hr.Body.Close() // the answer itself is the failure
				err = fmt.Errorf("a waiting request answered %d on a saturated service", hr.StatusCode)
			}
		}
		gone <- err
	}()
	waitFor(t, "the request to wait for a slot", func() bool { return svc.adm.waiting.Load() == 1 })
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("a waiting request whose client went away: %v", err)
	}
	waitFor(t, "the cancelled request to stop waiting for a slot", func() bool { return svc.adm.waiting.Load() == 0 })
	for ; taken > 0; taken-- {
		svc.adm.Release()
	}
	closedBooks(t, svc, ts, "a 503 and a cancelled wait")

	// A failed build: the entry's single-flight build returned an error,
	// which the request answers 500 with.
	seedEntry(t, svc, Spec{Problem: "cube", Size: 2}, func(e *cacheEntry) {
		e.err = errors.New("serve test: seeded setup failure")
	})
	if status, body := postBody(t, ts, `{"problem":"cube","size":2}`); status != http.StatusInternalServerError || !strings.Contains(body, "seeded setup failure") {
		t.Fatalf("a failed build: status %d body %q, want 500 with the build's error", status, body)
	}
	closedBooks(t, svc, ts, "a failed build")

	// A panicking build: the entry claims to be built and has no solver, so
	// building the request's preconditioner lease dereferences nil once the
	// slot, the session and the reference are taken. The panic unwinds the
	// handler's defers before the 500 is written; the seeded entry, which
	// can never hold a lease, then leaves the cache.
	broken := seedEntry(t, svc, Spec{Problem: "cantilever", Size: 1}, func(*cacheEntry) {})
	if status, body := postBody(t, ts, `{"problem":"cantilever","size":1}`); status != http.StatusInternalServerError || !strings.Contains(body, "panicked") {
		t.Fatalf("a panicking build: status %d body %q, want 500", status, body)
	}
	svc.cache.mu.Lock()
	refs := broken.refs
	delete(svc.cache.entries, broken.key)
	svc.cache.mu.Unlock()
	if refs != 0 {
		t.Errorf("after a panicking build: the entry has refs %d (cache.Release not run)", refs)
	}
	closedBooks(t, svc, ts, "a panicking build")

	for i, exit := range []string{"a cold 200", "a warm 200"} {
		resp := postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}})
		if !resp.Converged || resp.CacheHit != (i == 1) {
			t.Fatalf("%s: converged %v, cache_hit %v", exit, resp.Converged, resp.CacheHit)
		}
		closedBooks(t, svc, ts, exit)
	}
}

// TestCloseStopsTheJanitor: the janitor is the one goroutine the service
// starts, and Close returns only once it has exited, so a closed server
// leaves no goroutine behind.
func TestCloseStopsTheJanitor(t *testing.T) {
	base := runtime.NumGoroutine()
	svc := New(Config{SweepInterval: time.Millisecond, Log: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	closed := make(chan struct{})
	go func() {
		svc.Close()
		svc.Close() // a second Close returns too
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return within 10s: the janitor did not stop")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10s after Close, %d before New", runtime.NumGoroutine(), base)
		}
	}
}
