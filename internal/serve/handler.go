package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"prometheus/internal/krylov"
	"prometheus/internal/obs"
)

// SolveRequest is the POST /v1/solve body. Problem and Size select the
// geometry (see Spec); the rest tune the solve and the response shape.
type SolveRequest struct {
	Spec
	// LoadScale multiplies the problem's reference load (default 1). It
	// is per request and not part of the cache key: every scale of a
	// geometry shares one entry, and the request reduces its own scaled
	// load against the cached operator.
	LoadScale float64 `json:"load_scale"`
	// RTol is the relative residual tolerance (default 1e-4).
	RTol float64 `json:"rtol"`
	// MaxIters bounds the Krylov iterations (default 1000).
	MaxIters int `json:"max_iters"`
	// Cycle selects the multigrid cycle: "fmg" (default) or "v".
	Cycle string `json:"cycle"`
	// Storage selects the operator storage mode: "auto" (default — follow
	// the assembled fine matrix), "csr" or "bsr".
	Storage string `json:"storage"`
	// Stream switches the response to newline-delimited JSON: one
	// Progress line per Krylov iteration as it happens, then the final
	// SolveResponse line.
	Stream bool `json:"stream"`
	// ReturnSolution includes the full solution vector in the response
	// (the solution hash is always included).
	ReturnSolution bool `json:"return_solution"`
	// Wait blocks for an admission slot instead of failing fast with
	// 503 when the service is saturated.
	Wait bool `json:"wait"`
}

// withDefaults fills zero request fields.
func (r SolveRequest) withDefaults() SolveRequest {
	if r.LoadScale == 0 {
		r.LoadScale = 1
	}
	if r.RTol == 0 {
		r.RTol = 1e-4
	}
	if r.MaxIters == 0 {
		r.MaxIters = 1000
	}
	if r.Cycle == "" {
		r.Cycle = "fmg"
	}
	return r
}

// Bounds on the numeric request fields. The solver squares the load
// (residual norms, energy products), so the scale needs float64 headroom
// for its square on both sides; the iteration cap bounds how long one
// request may hold an admission slot and how long its residual history
// can grow.
const (
	minLoadScale = 1e-100
	maxLoadScale = 1e100
	maxItersCap  = 10000
)

// validate rejects a spec BuildGeometry cannot build and numeric fields
// the solver cannot give a meaningful answer for, naming the field. It
// runs on the defaulted request, before admission and before any
// geometry is built. The comparisons are written so NaN fails them.
func (r SolveRequest) validate() error {
	if err := r.Spec.validate(); err != nil {
		return err
	}
	if s := math.Abs(r.LoadScale); !(s >= minLoadScale && s <= maxLoadScale) {
		return fmt.Errorf("serve: load_scale must have magnitude in [%g, %g], got %g", minLoadScale, maxLoadScale, r.LoadScale)
	}
	if !(r.RTol > 0 && r.RTol < 1) {
		return fmt.Errorf("serve: rtol must be in (0, 1), got %g", r.RTol)
	}
	if r.MaxIters < 1 || r.MaxIters > maxItersCap {
		return fmt.Errorf("serve: max_iters must be in [1, %d], got %d", maxItersCap, r.MaxIters)
	}
	return nil
}

// Progress is one streamed residual line: the Krylov iteration number and
// the residual 2-norm after it (iteration 0 is the initial residual).
type Progress struct {
	// Iter is the iteration index.
	Iter int `json:"iter"`
	// Residual is the residual 2-norm.
	Residual float64 `json:"residual"`
}

// SolveResponse is the solve result document (the final line of a
// streamed response, or the whole body otherwise).
type SolveResponse struct {
	// Session is the solve's session id (see /v1/sessions).
	Session uint64 `json:"session"`
	// Problem and Size echo the request spec.
	Problem string `json:"problem"`
	Size    int    `json:"size"`
	// Fingerprint is the deterministic mesh fingerprint; Key the full
	// cache key derived from it.
	Fingerprint string `json:"fingerprint"`
	Key         string `json:"key"`
	// CacheHit reports whether the hierarchy cache already held the
	// setup products (warm request: coarsening, assembly and Galerkin
	// products all skipped).
	CacheHit bool `json:"cache_hit"`
	// SetupNs is the cold setup cost paid by this request's cache entry
	// build (0 on warm hits); SolveNs the Krylov solve time.
	SetupNs int64 `json:"setup_ns"`
	SolveNs int64 `json:"solve_ns"`
	// NumDOF and Levels describe the solved system.
	NumDOF int `json:"num_dof"`
	Levels int `json:"levels"`
	// Iterations, Converged and Residuals report the Krylov iteration;
	// Reason says why it ended: converged, max_iters, indefinite,
	// non_finite, breakdown or cancelled (krylov.StopReason).
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Reason     string    `json:"reason"`
	Residuals  []float64 `json:"residuals"`
	// SolutionHash is the sha256 over the solution's float64 bit
	// patterns (see SolutionHash); Solution is the full vector when
	// return_solution was set.
	SolutionHash string    `json:"solution_hash"`
	Solution     []float64 `json:"solution,omitempty"`
	// TraceID is the request's W3C trace id (also echoed in the
	// response Traceparent header); the Task* fields are this request's
	// own attributed work — flops, modeled messages/bytes and V-cycles
	// credited to exactly this solve, regardless of what other requests
	// ran concurrently. All zero unless the server runs with -obs.
	TraceID     string `json:"trace_id,omitempty"`
	TaskFlops   int64  `json:"task_flops,omitempty"`
	TaskMsgs    int64  `json:"task_msgs,omitempty"`
	TaskBytes   int64  `json:"task_bytes,omitempty"`
	TaskVCycles int64  `json:"task_vcycles,omitempty"`
	// Error is set when the solve finished abnormally (did not
	// converge, or the client cancelled mid-stream).
	Error string `json:"error,omitempty"`
}

// errorBody is the JSON error envelope for non-200 responses. TraceID is
// set on the 500 a recovered panic answers with, so the caller can quote
// it and the operator can find the stack.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// writeJSON writes v as a JSON response. v is encoded before the status
// line goes out, so a value JSON cannot carry (a NaN) answers 500 with
// the reason instead of the intended status and an empty body. The
// returned error only means the client stopped reading; there is nothing
// left to do with it but stop writing, which every caller does by
// returning.
func writeJSON(w http.ResponseWriter, status int, v interface{}) error {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: fmt.Sprintf("serve: encode response: %v", err)}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err = w.Write(append(body, '\n'))
	return err
}

// failJSON writes an error envelope, ignoring client-gone write errors.
func failJSON(w http.ResponseWriter, status int, msg string) {
	if err := writeJSON(w, status, errorBody{Error: msg}); err != nil {
		return
	}
}

// maxRequestBody bounds the solve request body (the API is parametric,
// not mesh-upload, so requests are tiny).
const maxRequestBody = 1 << 20

// handleSolve is POST /v1/solve: validation → admission → session →
// geometry → cache → load → solve.
// Every acquired resource is released by a defer directly under its
// acquisition, so error returns and panics unwind cleanly (the
// instrumentation layer turns a panic into a 500).
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		failJSON(w, http.StatusMethodNotAllowed, "serve: POST only")
		return
	}
	ctx := r.Context()
	s.requests.Add(1)

	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		failJSON(w, http.StatusBadRequest, fmt.Sprintf("serve: bad request body: %v", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		failJSON(w, http.StatusBadRequest, "serve: bad request body: trailing data after the request object")
		return
	}
	req = req.withDefaults()
	if err := req.validate(); err != nil {
		failJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := solverOptions(req.RTol, req.MaxIters, req.Cycle, req.Storage)
	if err != nil {
		failJSON(w, http.StatusBadRequest, err.Error())
		return
	}

	// Admission comes before any geometry: a request the service sheds
	// builds no mesh.
	if err := s.adm.Acquire(ctx, req.Wait); err != nil {
		s.rejected.Add(1)
		if errors.Is(err, ErrBusy) {
			mShed.Inc()
			w.Header().Set("Retry-After", "1")
			failJSON(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		failJSON(w, http.StatusServiceUnavailable, fmt.Sprintf("serve: cancelled while waiting for a slot: %v", err))
		return
	}
	defer s.adm.Release()

	task := obs.FromContext(ctx)
	sess := s.sessions.Checkout(req.Problem, req.Size, task)
	defer s.sessions.Checkin(sess)

	g, err := BuildGeometry(req.Spec)
	if err != nil {
		failJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	fp := g.Fingerprint(opts.Coarsen)
	key := cacheKey(fp, req.Cycle, opts)
	sess.setKey(key)

	entry, hit, err := s.cache.Acquire(key, fp, g, opts)
	if err != nil {
		failJSON(w, http.StatusInternalServerError, fmt.Sprintf("serve: setup: %v", err))
		return
	}
	defer s.cache.Release(entry)
	if hit {
		task.AddCacheHit()
	} else {
		task.AddCacheMiss()
	}

	ls, err := entry.Checkout()
	if err != nil {
		failJSON(w, http.StatusInternalServerError, fmt.Sprintf("serve: preconditioner: %v", err))
		return
	}
	defer entry.Checkin(ls)
	// The lease is exclusive until Checkin, so attaching the task and
	// writing the right-hand side are race-free; detach before the MG
	// returns to the pool. This defer runs before entry.Checkin's (LIFO),
	// so a pooled MG never carries a stale task.
	mg := ls.mg
	mg.SetTask(task)
	defer mg.SetTask(nil)

	sp := obs.StartTask(evLoad, task)
	entry.loads.Apply(ls.fred, g.Load, req.LoadScale)
	sp.End()

	resp := SolveResponse{
		Session:     sess.id,
		Problem:     req.Problem,
		Size:        req.Size,
		Fingerprint: fp,
		Key:         key,
		CacheHit:    hit,
		NumDOF:      entry.numDOF,
		Levels:      entry.levels,
		TraceID:     task.TraceID(),
	}
	if !hit {
		resp.SetupNs = entry.setupNs
	}

	var enc *json.Encoder
	var flusher http.Flusher
	if req.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
		flusher, _ = w.(http.Flusher)
	}
	// The monitor observes every residual: it forwards progress lines on
	// streamed requests and turns client cancellation into an early stop.
	// It only reads the iteration state, so the solve stays bitwise
	// identical to an unmonitored run.
	mon := func(iter int, rnorm float64) bool {
		if ctx.Err() != nil {
			return false
		}
		if enc != nil {
			if err := enc.Encode(Progress{Iter: iter, Residual: rnorm}); err != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return true
	}

	x := make([]float64, len(ls.fred))
	t0 := time.Now()
	res := krylov.FPCGMonitoredCtx(ctx, entry.kred, ls.fred, x, mg, req.RTol, req.MaxIters, mon)
	resp.SolveNs = time.Since(t0).Nanoseconds()
	resp.Iterations = res.Iterations
	resp.Converged = res.Converged
	resp.Reason = res.Reason.String()
	resp.Residuals = res.Residuals
	resp.TaskFlops = task.Flops()
	resp.TaskMsgs = task.Msgs()
	resp.TaskBytes = task.Bytes()
	resp.TaskVCycles = task.VCycles()
	mSolves.With(storageLabel(opts.MG.Storage)).Inc()
	mSolveStops.With(resp.Reason).Inc()

	if ctx.Err() != nil {
		s.cancelled.Add(1)
		resp.Error = "serve: client cancelled the solve"
		if enc != nil {
			if err := enc.Encode(resp); err != nil {
				return
			}
		}
		return
	}

	u := entry.solver.ExpandSolution(x)
	resp.SolutionHash = SolutionHash(u)
	if req.ReturnSolution {
		resp.Solution = u
	}
	if !res.Converged {
		resp.Error = fmt.Sprintf("serve: did not reach rtol=%g within %d iterations: stopped as %s after %d", req.RTol, req.MaxIters, resp.Reason, res.Iterations)
	}
	if enc != nil {
		if err := enc.Encode(resp); err != nil {
			return
		}
		return
	}
	if err := writeJSON(w, http.StatusOK, resp); err != nil {
		return
	}
}

// sessionsBody is the GET /v1/sessions document.
type sessionsBody struct {
	Active    []SessionInfo `json:"active"`
	Total     uint64        `json:"total"`
	LongestNs int64         `json:"longest_ns"`
}

// handleSessions is GET /v1/sessions: solves in flight plus lifetime
// totals.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		failJSON(w, http.StatusMethodNotAllowed, "serve: GET only")
		return
	}
	live, total, longest := s.sessions.snapshot()
	body := sessionsBody{Active: live, Total: total, LongestNs: longest.Nanoseconds()}
	if body.Active == nil {
		body.Active = []SessionInfo{}
	}
	if err := writeJSON(w, http.StatusOK, body); err != nil {
		return
	}
}

// cacheBody is the GET /v1/cache document.
type cacheBody struct {
	Entries   []EntryInfo `json:"entries"`
	Hits      int64       `json:"hits"`
	Misses    int64       `json:"misses"`
	Evictions int64       `json:"evictions"`
}

// handleCache is GET /v1/cache: the hierarchy cache contents and
// hit/miss totals.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		failJSON(w, http.StatusMethodNotAllowed, "serve: GET only")
		return
	}
	entries, hits, misses, evictions := s.cache.snapshot()
	body := cacheBody{Entries: entries, Hits: hits, Misses: misses, Evictions: evictions}
	if body.Entries == nil {
		body.Entries = []EntryInfo{}
	}
	if err := writeJSON(w, http.StatusOK, body); err != nil {
		return
	}
}

// handleSessionTrace is GET /v1/sessions/{id}/trace: the per-request
// Chrome trace (chrome://tracing / Perfetto JSON) of one solve — the
// spans recorded into that request's task ring, not the global ring, so
// concurrent solves export disjoint traces. Sessions stay fetchable for
// recentSessionsCap completions after they finish.
func (s *Server) handleSessionTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		failJSON(w, http.StatusMethodNotAllowed, "serve: GET only")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	idStr, ok := strings.CutSuffix(rest, "/trace")
	if !ok || idStr == "" || strings.Contains(idStr, "/") {
		failJSON(w, http.StatusNotFound, "serve: want /v1/sessions/{id}/trace")
		return
	}
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		failJSON(w, http.StatusBadRequest, fmt.Sprintf("serve: bad session id %q", idStr))
		return
	}
	sess, found := s.sessions.lookup(id)
	if !found {
		failJSON(w, http.StatusNotFound, fmt.Sprintf("serve: unknown session %d", id))
		return
	}
	if sess.task == nil {
		failJSON(w, http.StatusNotFound, fmt.Sprintf("serve: session %d has no trace", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := sess.task.Profile().WriteChromeTrace(w); err != nil {
		return
	}
}

// handleMetrics is GET /metrics: the whole obs registry — counters,
// gauges, histograms (as cumulative buckets) and per-event totals — in
// Prometheus text exposition format 0.0.4, rendered by stdlib code only.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		failJSON(w, http.StatusMethodNotAllowed, "serve: GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w); err != nil {
		return
	}
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	if err := writeJSON(w, status, h); err != nil {
		return
	}
}
