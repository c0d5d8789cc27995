package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"prometheus/internal/obs"
)

// newTestServer spins a service + httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// postSolve sends a solve request and decodes the (non-streamed) response.
func postSolve(t *testing.T, ts *httptest.Server, req SolveRequest) SolveResponse {
	t.Helper()
	resp, status := postSolveStatus(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("solve returned status %d: %+v", status, resp)
	}
	return resp
}

func postSolveStatus(t *testing.T, ts *httptest.Server, req SolveRequest) (SolveResponse, int) {
	t.Helper()
	out, status, err := trySolve(ts, req)
	if err != nil {
		t.Fatal(err)
	}
	return out, status
}

// trySolve sends a solve request and decodes the response, returning what
// went wrong instead of failing the test, so goroutines other than the
// test's own can use it.
func trySolve(ts *httptest.Server, req SolveRequest) (SolveResponse, int, error) {
	var out SolveResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, fmt.Errorf("marshal request: %w", err)
	}
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, fmt.Errorf("POST /v1/solve: %w", err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		return out, hr.StatusCode, fmt.Errorf("decode response (status %d): %w", hr.StatusCode, err)
	}
	return out, hr.StatusCode, nil
}

// servedScales are the load scales the bitwise tests serve from one cache
// entry: the default, fractions and multiples, a negative scale (which
// turns every zero load entry into -0) and a small one.
var servedScales = []float64{1, 0.5, 2, -1, 1e-3, 3}

// checkBitwiseDirect fails unless a served reply (with its solution
// returned) is bit for bit the direct solver's run of the same request:
// solution vector, residual history and iteration count.
func checkBitwiseDirect(t *testing.T, req SolveRequest, got SolveResponse) {
	t.Helper()
	uDirect, resDirect, err := DirectSolve(req.Spec, req.LoadScale, 1e-4, 1000, "fmg", "", "")
	if err != nil {
		t.Fatalf("direct solve at scale %g: %v", req.LoadScale, err)
	}
	if !got.Converged || got.Iterations != resDirect.Iterations {
		t.Fatalf("scale %g: served %d iterations (converged %v), direct %d", req.LoadScale, got.Iterations, got.Converged, resDirect.Iterations)
	}
	if !sameBits(got.Residuals, resDirect.Residuals) {
		t.Fatalf("scale %g: residual history %v, direct %v", req.LoadScale, got.Residuals, resDirect.Residuals)
	}
	if !sameBits(got.Solution, uDirect) {
		t.Fatalf("scale %g: served solution differs from the direct one", req.LoadScale)
	}
	if want := SolutionHash(uDirect); got.SolutionHash != want {
		t.Fatalf("scale %g: solution hash %s, direct %s", req.LoadScale, got.SolutionHash, want)
	}
}

// sameBits reports whether two vectors hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestServeBitwiseIdentical is the end-to-end oracle: a served solve must
// be bitwise identical — solution vector, residual history, iteration
// count — to a direct solver run of the same request. Every load scale is
// served from one cache entry, built by the first request; the others hit
// it and reduce their own load against it.
func TestServeBitwiseIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var key string
	for i, scale := range servedScales {
		req := SolveRequest{Spec: Spec{Problem: "cube", Size: 1}, LoadScale: scale, ReturnSolution: true}
		got := postSolve(t, ts, req)
		checkBitwiseDirect(t, req, got)
		if i == 0 {
			key = got.Key
		}
		if got.Key != key || got.CacheHit != (i > 0) {
			t.Fatalf("scale %g: key %s, cache_hit %v; want the first request's key %s and a hit after it", scale, got.Key, got.CacheHit, key)
		}
	}
	var cb cacheBody
	getJSON(t, ts.URL+"/v1/cache", &cb)
	if cb.Misses != 1 || cb.Hits != int64(len(servedScales)-1) || len(cb.Entries) != 1 {
		t.Fatalf("%d misses, %d hits, %d entries after %d scales; want 1, %d, 1", cb.Misses, cb.Hits, len(cb.Entries), len(servedScales), len(servedScales)-1)
	}
}

// TestConcurrentScalesShareOneEntry: requests for one geometry at
// distinct load scales, all sent at once, share one single-flight build —
// one miss, one entry — and every reply is bit for bit its direct solve.
// On a one-slot service the solves queue and the entry's first
// preconditioner serves all of them (Builds = 1); with a slot each they
// overlap, and every overlapping solve leases a preconditioner of its own.
func TestConcurrentScalesShareOneEntry(t *testing.T) {
	scales := servedScales[:4]
	for _, slots := range []int{1, len(scales)} {
		_, ts := newTestServer(t, Config{MaxConcurrent: slots})
		reqs := make([]SolveRequest, len(scales))
		replies := make([]SolveResponse, len(scales))
		statuses := make([]int, len(scales))
		errs := make([]error, len(scales))
		var wg sync.WaitGroup
		for i, scale := range scales {
			reqs[i] = SolveRequest{Spec: Spec{Problem: "cube", Size: 1}, LoadScale: scale, ReturnSolution: true, Wait: true}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				replies[i], statuses[i], errs[i] = trySolve(ts, reqs[i])
			}(i)
		}
		wg.Wait()
		for i := range reqs {
			if errs[i] != nil || statuses[i] != http.StatusOK {
				t.Fatalf("%d slots, scale %g: status %d, error %v", slots, reqs[i].LoadScale, statuses[i], errs[i])
			}
			checkBitwiseDirect(t, reqs[i], replies[i])
		}
		var cb cacheBody
		getJSON(t, ts.URL+"/v1/cache", &cb)
		if cb.Misses != 1 || len(cb.Entries) != 1 {
			t.Fatalf("%d slots: %d misses and %d entries for %d scales of one geometry, want 1 and 1", slots, cb.Misses, len(cb.Entries), len(scales))
		}
		if b := cb.Entries[0].Builds; b < 1 || b > int64(slots) {
			t.Fatalf("%d slots: the entry built %d preconditioners, want 1..%d", slots, b, slots)
		}
	}
}

// TestServeMatrixFree: DirectSolve's storage parameter accepts only the
// default, so the retired "mf" storage is refused, as are "csr" and "bsr"
// — the handler refuses the "storage" field itself
// (TestServeRequestValidation) — with an error that names the parameter
// and says where the storage comes from.
func TestServeMatrixFree(t *testing.T) {
	for _, st := range []string{"mf", "csr", "bsr"} {
		_, _, err := DirectSolve(Spec{Problem: "cube", Size: 1}, 1, 1e-4, 1000, "fmg", st, "")
		if err == nil || !strings.Contains(err.Error(), "storage") || !strings.Contains(err.Error(), "read from the operator") {
			t.Fatalf("DirectSolve with storage %s: error %v, want one naming storage and where it is read from", st, err)
		}
	}
}

// TestServeCacheSkipsSetup asserts the performance heart of the service:
// the second request for a geometry, at a load scale the entry has not
// seen, runs zero coarsening, assembly, reduction and multigrid setup —
// the obs phase counters for all of them must not move. Only its own load
// reduction runs, under serve.load.
func TestServeCacheSkipsSetup(t *testing.T) {
	obs.EnableWith(obs.Config{})
	defer obs.Disable()

	_, ts := newTestServer(t, Config{})
	spec := Spec{Problem: "cube", Size: 1}

	first := postSolve(t, ts, SolveRequest{Spec: spec})
	if first.CacheHit {
		t.Fatalf("first request reported a cache hit")
	}
	if first.SetupNs <= 0 {
		t.Fatalf("first request reported setup_ns = %d, want > 0", first.SetupNs)
	}

	count := func(p *obs.Profile, name string) int64 {
		e, ok := p.Event(name)
		if !ok {
			return 0
		}
		return e.Totals().Count
	}
	setup := []string{"core.coarsen", "fem.assemble", "fem.reduce", "mg.setup", "mg.setup.galerkin"}
	before := obs.Snapshot()
	for _, ev := range setup {
		if count(before, ev) == 0 {
			t.Fatalf("oracle broken: no %s events recorded by the cold request", ev)
		}
	}

	second := postSolve(t, ts, SolveRequest{Spec: spec, LoadScale: 2})
	if !second.CacheHit {
		t.Fatalf("second request missed the cache: %+v", second)
	}
	if second.SetupNs != 0 {
		t.Fatalf("warm request reported setup_ns = %d, want 0", second.SetupNs)
	}
	after := obs.Snapshot()
	for _, ev := range setup {
		if b, a := count(before, ev), count(after, ev); a != b {
			t.Fatalf("warm request ran setup phase %s: count %d -> %d", ev, b, a)
		}
	}
	if b, a := count(before, "serve.load"), count(after, "serve.load"); a != b+1 {
		t.Fatalf("warm request reduced its load %d times, want once", a-b)
	}
	if first.SolutionHash == second.SolutionHash {
		t.Fatal("scales 1 and 2 gave one solution hash")
	}
	if third := postSolve(t, ts, SolveRequest{Spec: spec}); third.SolutionHash != first.SolutionHash {
		t.Fatalf("warm solution hash %s differs from cold %s", third.SolutionHash, first.SolutionHash)
	}
}

// TestServeStreaming checks the ndjson progress protocol: one line per
// residual, then the final response line, all well-formed.
func TestServeStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := json.Marshal(SolveRequest{Spec: Spec{Problem: "cube", Size: 1}, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream had %d lines, want progress + final", len(lines))
	}
	var final SolveResponse
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("final line not a SolveResponse: %v", err)
	}
	if !final.Converged || final.Error != "" {
		t.Fatalf("streamed solve failed: %+v", final)
	}
	progress := lines[:len(lines)-1]
	// One progress line per recorded residual (iteration 0 included).
	if len(progress) != len(final.Residuals) {
		t.Fatalf("%d progress lines for %d residuals", len(progress), len(final.Residuals))
	}
	for i, ln := range progress {
		var p Progress
		if err := json.Unmarshal([]byte(ln), &p); err != nil {
			t.Fatalf("progress line %d: %v", i, err)
		}
		if p.Iter != i {
			t.Fatalf("progress line %d has iter %d", i, p.Iter)
		}
		if p.Residual != final.Residuals[i] {
			t.Fatalf("streamed residual %d = %v, final history has %v", i, p.Residual, final.Residuals[i])
		}
	}
}

// TestServeConcurrentSessions races concurrent sessions against one
// cached hierarchy (run under -race in CI): every request must succeed
// and produce the identical solution hash. Then the open-loop half: with
// every slot taken, requests that do not wait are shed with 503, and the
// service accounts for each request as either admitted or rejected.
func TestServeConcurrentSessions(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxConcurrent: 4})
	spec := Spec{Problem: "cube", Size: 1}
	// Warm the cache once so the racing requests share one entry.
	warm := postSolve(t, ts, SolveRequest{Spec: spec})

	const workers = 6
	const perWorker = 2
	hashes := make([][]string, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body, err := json.Marshal(SolveRequest{Spec: spec, Wait: true})
				if err != nil {
					errs <- err
					return
				}
				hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out SolveResponse
				err = json.NewDecoder(hr.Body).Decode(&out)
				if cerr := hr.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs <- err
					return
				}
				if hr.StatusCode != http.StatusOK || !out.Converged {
					errs <- fmt.Errorf("worker %d request %d: status %d converged %v", w, i, hr.StatusCode, out.Converged)
					return
				}
				hashes[w] = append(hashes[w], out.SolutionHash)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w, hs := range hashes {
		for i, h := range hs {
			if h != warm.SolutionHash {
				t.Fatalf("worker %d request %d hash %s, want %s", w, i, h, warm.SolutionHash)
			}
		}
	}

	const shed = 3
	for i := 0; i < 4; i++ {
		if err := svc.adm.Acquire(context.Background(), false); err != nil {
			t.Fatalf("taking slot %d of an idle service: %v", i, err)
		}
	}
	for i := 0; i < shed; i++ {
		if _, status := postSolveStatus(t, ts, SolveRequest{Spec: spec}); status != http.StatusServiceUnavailable {
			t.Fatalf("request %d to a saturated service: status %d, want 503", i, status)
		}
	}
	for i := 0; i < 4; i++ {
		svc.adm.Release()
	}
	if got := postSolve(t, ts, SolveRequest{Spec: spec}); got.SolutionHash != warm.SolutionHash {
		t.Fatalf("hash after backpressure %s, want %s", got.SolutionHash, warm.SolutionHash)
	}
	var h Health
	getJSON(t, ts.URL+"/healthz", &h)
	admitted := int64(1 + workers*perWorker + 1)
	if h.Rejected != shed || h.Requests != admitted+shed || int64(h.TotalSessions) != admitted {
		t.Fatalf("request accounting: %d requests, %d sessions admitted, %d rejected; want %d = %d + %d",
			h.Requests, h.TotalSessions, h.Rejected, admitted+shed, admitted, shed)
	}
}

// TestAdmissionBeforeGeometry: on a saturated service a bad spec still
// answers 400 and a good one 503, and neither builds a geometry — the spec
// is checked with the rest of the request, and a mesh is built only after
// admission.
func TestAdmissionBeforeGeometry(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxConcurrent: 1})
	if err := svc.adm.Acquire(context.Background(), false); err != nil {
		t.Fatalf("taking the only slot of an idle service: %v", err)
	}
	defer svc.adm.Release()
	builds := geometryBuilds.Load()
	for _, tc := range []struct {
		spec   Spec
		status int
	}{
		{Spec{Problem: "torus", Size: 1}, http.StatusBadRequest},
		{Spec{Problem: "cube", Size: maxSize + 1}, http.StatusBadRequest},
		{Spec{Problem: "cube", Size: 1}, http.StatusServiceUnavailable},
	} {
		if _, status := postSolveStatus(t, ts, SolveRequest{Spec: tc.spec}); status != tc.status {
			t.Fatalf("%+v on a saturated service: status %d, want %d", tc.spec, status, tc.status)
		}
	}
	if n := geometryBuilds.Load() - builds; n != 0 {
		t.Fatalf("requests that were refused built %d geometries", n)
	}
}

// TestServeHealthAndDebug smoke-tests the observability surface: healthz,
// session/cache listings and the /debug endpoints all answer on the one
// mux.
func TestServeHealthAndDebug(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_ = postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}})

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	err = json.NewDecoder(hr.Body).Decode(&h)
	if cerr := hr.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status %d %+v", hr.StatusCode, h)
	}
	if h.Requests < 1 || h.TotalSessions < 1 || h.CacheEntries < 1 || h.CacheMisses < 1 {
		t.Fatalf("healthz counters not advancing: %+v", h)
	}
	if h.ActiveSessions != 0 {
		t.Fatalf("healthz reports %d active sessions after completion", h.ActiveSessions)
	}

	var sb sessionsBody
	getJSON(t, ts.URL+"/v1/sessions", &sb)
	if sb.Total < 1 || len(sb.Active) != 0 {
		t.Fatalf("sessions listing: %+v", sb)
	}

	var cb cacheBody
	getJSON(t, ts.URL+"/v1/cache", &cb)
	if len(cb.Entries) != 1 || cb.Misses != 1 {
		t.Fatalf("cache listing: %+v", cb)
	}
	if cb.Entries[0].Key == "" || cb.Entries[0].Levels < 1 {
		t.Fatalf("cache entry missing fields: %+v", cb.Entries[0])
	}

	for _, path := range []string{"/debug/vars", "/debug/pprof/cmdline"} {
		dr, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if cerr := dr.Body.Close(); cerr != nil {
			t.Fatalf("close %s body: %v", path, cerr)
		}
		if dr.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, dr.StatusCode)
		}
	}
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	hr, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hr.Body).Decode(v)
	if cerr := hr.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestServeRequestValidation covers the 4xx paths.
func TestServeRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if _, status := postSolveStatus(t, ts, SolveRequest{Spec: Spec{Problem: "torus", Size: 1}}); status != http.StatusBadRequest {
		t.Fatalf("unknown problem: status %d, want 400", status)
	}
	if _, status := postSolveStatus(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 99}}); status != http.StatusBadRequest {
		t.Fatalf("oversized problem: status %d, want 400", status)
	}

	// Hostile numbers and malformed bodies: each must answer 400 with a
	// JSON error naming the offending field, before any hierarchy is built.
	// "precision", "cycle" and "storage" are retired fields, unknown to
	// the strict decoder whatever their value.
	for _, tc := range []struct{ body, names string }{
		{`{"problem":"cube","size":1,"load_scale":1e308,"wait":true}`, "load_scale"},
		{`{"problem":"cube","size":1,"load_scale":-1e101}`, "load_scale"},
		{`{"problem":"cube","size":1,"load_scale":1e-300}`, "load_scale"},
		{`{"problem":"cube","size":1,"load_scale":1e999}`, "load_scale"},
		{`{"problem":"cube","size":1,"rtol":-1e-4}`, "rtol"},
		{`{"problem":"cube","size":1,"rtol":1}`, "rtol"},
		{`{"problem":"cube","size":1,"rtol":"NaN"}`, "rtol"},
		{`{"problem":"cube","size":1,"max_iters":-1}`, "max_iters"},
		{`{"problem":"cube","size":1,"max_iters":10001}`, "max_iters"},
		{`{"problem":"cube","size":1,"max_iters":1e30}`, "max_iters"},
		{`{"problem":"cube","size":1,"tolerance":1e-4}`, "tolerance"},
		{`{"problem":"cube","size":1,"precision":"f32"}`, "precision"},
		{`{"problem":"cube","size":1,"cycle":"v"}`, "cycle"},
		{`{"problem":"cube","size":1,"cycle":"fmg"}`, "cycle"},
		{`{"problem":"cube","size":1,"storage":"mf"}`, "storage"},
		{`{"problem":"cube","size":1,"storage":"auto"}`, "storage"},
		{`{"problem":"cube","size":1}{"problem":"cube","size":2}`, "trailing"},
		{`{"problem":"cube","size":1}]`, "trailing"},
	} {
		hr, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(hr.Body).Decode(&eb)
		if cerr := hr.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: status %d, body is not a JSON error: %v", tc.body, hr.StatusCode, err)
		}
		if hr.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, tc.names) {
			t.Errorf("%s: status %d error %q, want 400 naming %q", tc.body, hr.StatusCode, eb.Error, tc.names)
		}
	}
	var cb cacheBody
	getJSON(t, ts.URL+"/v1/cache", &cb)
	if cb.Misses != 0 {
		t.Errorf("rejected requests built %d cache entries", cb.Misses)
	}

	hr, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := hr.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status %d, want 405", hr.StatusCode)
	}
}
