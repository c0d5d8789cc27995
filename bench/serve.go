package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"

	prometheus "prometheus"
	"prometheus/internal/krylov"
	"prometheus/internal/obs"
	"prometheus/internal/serve"
)

// serveKey is one point of a serve workload's key space: a geometry and a
// load scale, which together decide the server's cache key.
type serveKey struct {
	spec  serve.Spec
	scale float64
}

// server is a running solve service: the promserve binary on a loopback
// port, or the same handler in-process when no binary is given (tests).
type server struct {
	url string
	cmd *exec.Cmd
	ts  *httptest.Server
	svc *serve.Server
}

// startServer starts the service and returns once /healthz answers ok,
// with the time that took.
func startServer(ctx context.Context, bin string, withObs bool) (*server, time.Duration, error) {
	t0 := time.Now()
	if bin == "" {
		if withObs {
			obs.EnableWith(obs.Config{RingCap: obsRingCap})
		} else {
			obs.Disable()
		}
		svc := serve.New(serve.Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
		ts := httptest.NewServer(svc.Handler())
		return &server{url: ts.URL, ts: ts, svc: svc}, time.Since(t0), nil
	}
	// The port is picked by binding :0 and releasing it; if something
	// takes it before promserve binds, the start is retried on another.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, fmt.Errorf("bench: pick a port: %w", err)
		}
		addr := ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, 0, fmt.Errorf("bench: release the port: %w", err)
		}
		cmd := exec.Command(bin, "-addr", addr, fmt.Sprintf("-obs=%t", withObs), "-log-level", "error")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("bench: start %s: %w", bin, err)
		}
		s := &server{url: "http://" + addr, cmd: cmd}
		if lastErr = s.waitHealthy(ctx, 15*time.Second); lastErr == nil {
			return s, time.Since(t0), nil
		}
		if _, err := s.stop(); err != nil {
			lastErr = errors.Join(lastErr, err)
		}
	}
	return nil, 0, fmt.Errorf("bench: promserve did not become healthy: %w", lastErr)
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	var lastErr error
	for time.Now().Before(deadline) {
		var h serve.Health
		if lastErr = getJSON(ctx, http.DefaultClient, s.url+"/healthz", &h); lastErr == nil && h.Status == "ok" {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bench: /healthz not ok within %v: %w", limit, lastErr)
}

// pid is the process the service runs in: promserve's, or 0 for the
// benchmark's own when the handler runs in-process.
func (s *server) pid() int {
	if s.cmd == nil {
		return 0
	}
	return s.cmd.Process.Pid
}

// stop ends the service and waits for it: SIGTERM, then kill if the drain
// takes too long. It returns the peak resident set of the service's
// process.
func (s *server) stop() (float64, error) {
	rss, rssErr := peakRSSMB(s.pid())
	if s.cmd == nil {
		s.ts.Close()
		s.svc.Close()
		obs.Disable()
		return rss, rssErr
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		rssErr = errors.Join(rssErr, fmt.Errorf("bench: signal promserve: %w", err))
	}
	exited := make(chan error, 1)
	go func() { exited <- s.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			rssErr = errors.Join(rssErr, fmt.Errorf("bench: promserve exit: %w", err))
		}
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill() // already past the drain limit; Wait below reports
		<-exited
		rssErr = errors.Join(rssErr, errors.New("bench: promserve had to be killed"))
	}
	return rss, rssErr
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // a body that was only read
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reqRecord is one request as the client saw it.
type reqRecord struct {
	key     int
	geom    serve.Spec
	latency time.Duration
	// rssMB is the service's resident set when the reply was in.
	rssMB float64
	resp  serve.SolveResponse
	// problem is empty for a 200 reply that converged; the hash is
	// checked afterwards against the reference.
	problem string
}

// solveBody is the POST /v1/solve body of a key: default options, and
// wait so a busy service queues the caller instead of refusing it.
func solveBody(k serveKey) []byte {
	raw, err := json.Marshal(map[string]any{
		"problem": k.spec.Problem, "size": k.spec.Size, "load_scale": k.scale, "wait": true,
	})
	if err != nil {
		panic("bench: encode solve request: " + err.Error())
	}
	return raw
}

// solveOnce posts one request on the client's connection and reads the
// whole reply.
func solveOnce(ctx context.Context, c *http.Client, url string, body []byte) (serve.SolveResponse, string) {
	var out serve.SolveResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return out, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return out, err.Error()
	}
	defer func() { _ = resp.Body.Close() }() // a body that was only read
	raw, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return out, err.Error()
	case resp.StatusCode != http.StatusOK:
		return out, fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, err.Error()
	}
	if !out.Converged {
		return out, "converged:false " + out.Error
	}
	return out, ""
}

// newClient returns an HTTP client that keeps exactly one connection
// alive, as one caller of the service would.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// drive runs the closed loop with one caller on one keep-alive connection,
// which sends its next request only when the previous reply is in. One
// caller, because the service solves a request on one core and the host
// has few: with as many callers as cores, the callers, the service's
// garbage collector and the benchmark itself queue for the cores, and the
// latencies measure the scheduler (the same code then spread by a quarter
// from run to run). Requests are taken in order from reqs, generated
// beforehand, until maxReq requests are done or, when maxReq is 0, for
// the whole number of decks that comes nearest to window (at least one),
// so that every run times the same mix of keys. It returns what every request
// saw, the time from the first send to the last reply, and the caller's
// tracer: a "request" span per request with the server-reported setup and
// solve intervals placed inside it.
func drive(ctx context.Context, srv *server, keys []serveKey, reqs plan, window time.Duration, maxReq int, origin time.Time) ([]reqRecord, time.Duration, *tracer) {
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		bodies[i] = solveBody(k)
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	tr := newTracer(origin)
	var recs []reqRecord
	start := time.Now()
	for i := 0; ; i++ {
		if maxReq > 0 && i >= maxReq {
			break
		}
		if decks := i / reqs.deck; maxReq == 0 && decks > 0 && i%reqs.deck == 0 {
			// Stop here unless half of another deck still fits.
			if elapsed := time.Since(start); elapsed+elapsed/time.Duration(2*decks) >= window {
				break
			}
		}
		key := reqs.seq[i%len(reqs.seq)]
		tr.id = i + 1
		sp := tr.begin("request")
		resp, problem := solveOnce(ctx, hc, srv.url, bodies[key])
		lat := tr.end(sp)
		rss, err := rssMB(srv.pid())
		if err != nil && problem == "" {
			problem = err.Error()
		}
		// The reply says how long setup and solve took, not when; they
		// are placed back to back in the middle of the request, the
		// overhead split around them.
		inside := time.Duration(resp.SetupNs + resp.SolveNs)
		if problem == "" && inside <= lat {
			at := tr.spans[sp].Start + (lat-inside)/2
			if resp.SetupNs > 0 {
				tr.addReply("serve.setup", sp, at, at+time.Duration(resp.SetupNs))
				at += time.Duration(resp.SetupNs)
			}
			tr.addReply("serve.solve", sp, at, at+time.Duration(resp.SolveNs))
		}
		recs = append(recs, reqRecord{key: key, geom: keys[key].spec, latency: lat, rssMB: rss, resp: resp, problem: problem})
	}
	return recs, time.Since(start), tr
}

// reference holds, for every key, the solution hash a direct solver run
// gives, and how long the service's per-request fixed steps take for each
// distinct geometry.
type reference struct {
	hash            map[int]string
	buildGeometryMS []float64
	fingerprintMS   []float64
}

// buildReference computes the expected hash of every key in use with the
// solver called directly: serve.DirectSolve's pipeline (BuildGeometry,
// NewSolver, AssembleLinear, ReduceSystem, Preconditioner, FPCG), run once
// per geometry with only the load-dependent steps repeated per scale,
// which gives the same bits at a fraction of the cost when thirty keys
// share ten geometries. Geometries are spread over the cores.
func buildReference(keys []serveKey, used map[int]bool) (*reference, error) {
	bySpec := map[serve.Spec][]int{}
	var order []serve.Spec
	for i, k := range keys {
		if !used[i] {
			continue
		}
		if _, seen := bySpec[k.spec]; !seen {
			order = append(order, k.spec)
		}
		bySpec[k.spec] = append(bySpec[k.spec], i)
	}
	ref := &reference{hash: map[int]string{}}
	var mu sync.Mutex
	var firstErr error
	work := make(chan serve.Spec, len(order))
	for _, s := range order {
		work <- s
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range work {
				hashes, geomMS, fpMS, err := referenceForSpec(spec, keys, bySpec[spec])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for i, h := range hashes {
					ref.hash[i] = h
				}
				ref.buildGeometryMS = append(ref.buildGeometryMS, geomMS)
				ref.fingerprintMS = append(ref.fingerprintMS, fpMS)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ref, firstErr
}

// referenceForSpec solves every listed key of one geometry directly.
func referenceForSpec(spec serve.Spec, keys []serveKey, idx []int) (map[int]string, float64, float64, error) {
	t0 := time.Now()
	g, err := serve.BuildGeometry(spec)
	geomMS := time.Since(t0).Seconds() * 1e3
	if err != nil {
		return nil, 0, 0, err
	}
	opts := prometheus.Options{RTol: 1e-4, MaxIters: 1000}
	t0 = time.Now()
	g.Fingerprint(opts.Coarsen)
	fpMS := time.Since(t0).Seconds() * 1e3
	solver, err := prometheus.NewSolver(g.Mesh, g.Cons, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	k, _, err := g.AssembleLinear(1)
	if err != nil {
		return nil, 0, 0, err
	}
	hashes := map[int]string{}
	var mg krylov.Preconditioner
	for _, i := range idx {
		f := make([]float64, len(g.Load))
		for j, v := range g.Load {
			f[j] = keys[i].scale * v
		}
		kred, fred := solver.ReduceSystem(k, f)
		if mg == nil {
			if mg, err = solver.Preconditioner(kred); err != nil {
				return nil, 0, 0, err
			}
		}
		x := make([]float64, kred.Rows())
		if res := krylov.FPCG(kred, fred, x, mg, opts.RTol, opts.MaxIters); !res.Converged {
			return nil, 0, 0, fmt.Errorf("bench: reference solve of %v did not converge", keys[i])
		}
		hashes[i] = serve.SolutionHash(solver.ExpandSolution(x))
	}
	return hashes, geomMS, fpMS, nil
}

// plan is the request sequence of a run: the key index of every request,
// and how many requests make one deck, the stretch after which the mix of
// keys repeats.
type plan struct {
	seq  []int
	deck int
}

// serveWorkload describes a serve workload: its key space, whether every
// key is requested once before the timed window as part of the set-up,
// whether callers repeat themselves (see requestSequence), and how many
// times the set-up is repeated for its median.
type serveWorkload struct {
	keys    []serveKey
	prefill bool
	repeat  bool
	setups  int
}

// warmUpScale is the load scale of the warm-up requests of a workload that
// is not prefilled. No key space holds it, so the warm-up fills the cache
// and grows the service's heap without leaving a key behind that the timed
// window could hit.
const warmUpScale = 1.5

// withWarmUp returns the workload's keys followed by its warm-up keys:
// every geometry once at warmUpScale, or none when the workload is
// prefilled, whose prefill is its warm-up. The warm-up is requested once,
// untimed, after the set-up. Without it the first deck of the window runs
// against an empty cache and a small heap and differs from the later
// ones, and every metric then moves with the number of decks a run fits
// in, that is with the speed of the host.
func (w serveWorkload) withWarmUp() []serveKey {
	all := append([]serveKey(nil), w.keys...)
	if w.prefill {
		return all
	}
	seen := map[serve.Spec]bool{}
	for _, k := range w.keys {
		if !seen[k.spec] {
			seen[k.spec] = true
			all = append(all, serveKey{spec: k.spec, scale: warmUpScale})
		}
	}
	return all
}

// requestSequence draws the key index of every request from the seed:
// decks of the whole key space laid end to end, so every key is requested
// equally often in any stretch and only the order is random. A deck is one
// round per load scale; a round asks for every geometry once, in shuffled
// order, each with one of its keys not yet asked for in this deck. Every
// stretch of requests therefore holds the same mix of small and large
// geometries, and so does the service's cache; independent draws let the
// share of large geometries wander from seed to seed and took every
// latency statistic with it. With repeat, every geometry is asked for once
// more per deck, right after one of its requests chosen by the seed, as a
// caller who asks twice would: a key never returns within a deck
// otherwise, and these are the hits of a workload whose key space is
// larger than the cache.
func (w serveWorkload) requestSequence(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	var geoms [][]int // the key indexes of each geometry
	at := map[serve.Spec]int{}
	for i, k := range w.keys {
		g, seen := at[k.spec]
		if !seen {
			g = len(geoms)
			at[k.spec] = g
			geoms = append(geoms, nil)
		}
		geoms[g] = append(geoms[g], i)
	}
	var seq []int
	deck := 0
	for len(seq) < 1<<14 {
		repeatIn := make([]int, len(geoms))
		for g, own := range geoms {
			rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
			repeatIn[g] = rng.Intn(len(own))
		}
		for round, left := 0, true; left; round++ {
			left = false
			for _, g := range rng.Perm(len(geoms)) {
				if round >= len(geoms[g]) {
					continue
				}
				left = true
				seq = append(seq, geoms[g][round])
				if w.repeat && round == repeatIn[g] {
					seq = append(seq, geoms[g][round])
				}
			}
		}
		if deck == 0 {
			deck = len(seq)
		}
	}
	return plan{seq: seq, deck: deck}
}

// typicalRequest is the expected value for a request of the run's mix,
// with a robust statistic inside each group of requests that cost the
// same: the median of value within each geometry's hits and within its
// misses (the load scale changes the key, not the work), weighted by how
// many requests the group has. The plain median of a mix of geometries
// whose latencies differ by an order of magnitude sits on the edge between
// two of them and jumps with the counts.
func typicalRequest(recs []reqRecord, value func(reqRecord) float64) float64 {
	type group struct {
		geom serve.Spec
		hit  bool
	}
	byGroup := map[group][]float64{}
	n := 0
	for _, r := range recs {
		if r.problem == "" {
			g := group{r.geom, r.resp.CacheHit}
			byGroup[g] = append(byGroup[g], value(r))
			n++
		}
	}
	total := 0.0
	for _, v := range byGroup {
		total += float64(len(v)) * median(v)
	}
	return total / float64(n)
}

// setUp brings a service to the state it takes requests in: started,
// healthy and, for a prefilled workload, every key solved once. It returns
// the service, how long that took, and the prefill replies.
func (w serveWorkload) setUp(ctx context.Context, bin string, withObs bool) (*server, time.Duration, []reqRecord, error) {
	srv, took, err := startServer(ctx, bin, withObs)
	if err != nil {
		return nil, 0, nil, err
	}
	if !w.prefill {
		return srv, took, nil, nil
	}
	t0 := time.Now()
	seq := make([]int, len(w.keys))
	for i := range seq {
		seq[i] = i
	}
	recs, _, _ := drive(ctx, srv, w.keys, plan{seq: seq, deck: len(seq)}, 0, len(seq), t0)
	return srv, took + time.Since(t0), recs, nil
}

// phase is one timed window against one service instance.
type phase struct {
	recs   []reqRecord
	window time.Duration
	tracer *tracer
	setup  time.Duration
	before []reqRecord // the untimed replies: prefill and warm-up
	peakMB float64
	health serve.Health
	// The service's books after the window, and (0) before it.
	cache, cache0 cacheDoc
	vars, vars0   varsDoc
}

// cacheDoc is the part of GET /v1/cache the benchmark reads.
type cacheDoc struct {
	Entries   []serve.EntryInfo `json:"entries"`
	Hits      int64             `json:"hits"`
	Misses    int64             `json:"misses"`
	Evictions int64             `json:"evictions"`
}

// varsDoc is the part of GET /debug/vars the benchmark reads: the
// runtime's memory statistics and the obs profile the service publishes.
type varsDoc struct {
	Memstats runtime.MemStats `json:"memstats"`
	Obs      obs.Profile      `json:"prometheus_obs"`
}

// runPhase sets a service up, drives the closed loop for window (or
// maxReq requests), reads the service's own books and stops it.
func (w serveWorkload) runPhase(ctx context.Context, cfg runConfig, reqs plan, window time.Duration, withObs bool, origin time.Time) (*phase, error) {
	srv, setup, before, err := w.setUp(ctx, cfg.promserve, withObs)
	if err != nil {
		return nil, err
	}
	ph := &phase{setup: setup, before: before}
	all := w.withWarmUp()
	if warm := len(all) - len(w.keys); warm > 0 {
		seq := make([]int, warm)
		for i := range seq {
			seq[i] = len(w.keys) + i
		}
		recs, _, _ := drive(ctx, srv, all, plan{seq: seq, deck: warm}, 0, warm, origin)
		ph.before = append(ph.before, recs...)
	}
	err = errors.Join(
		getJSON(ctx, http.DefaultClient, srv.url+"/v1/cache", &ph.cache0),
		getJSON(ctx, http.DefaultClient, srv.url+"/debug/vars", &ph.vars0),
	)
	if err != nil {
		_, stopErr := srv.stop()
		return nil, errors.Join(err, stopErr)
	}
	ph.recs, ph.window, ph.tracer = drive(ctx, srv, all, reqs, window, cfg.maxOps, origin)
	err = errors.Join(
		getJSON(ctx, http.DefaultClient, srv.url+"/v1/cache", &ph.cache),
		getJSON(ctx, http.DefaultClient, srv.url+"/healthz", &ph.health),
		getJSON(ctx, http.DefaultClient, srv.url+"/debug/vars", &ph.vars),
	)
	peak, stopErr := srv.stop()
	ph.peakMB = peak
	if err = errors.Join(err, stopErr); err != nil {
		return nil, err
	}
	return ph, nil
}

// check counts a set of replies against the reference hashes.
func (r *outcome) check(recs []reqRecord, ref *reference, what string) {
	for i := range recs {
		rec := &recs[i]
		r.attempted++
		if rec.problem == "" && rec.resp.SolutionHash != ref.hash[rec.key] {
			rec.problem = "solution hash differs from the direct solve's"
		}
		if rec.problem != "" {
			r.failed++
			if len(r.problems) < 10 {
				r.problems = append(r.problems, fmt.Sprintf("%s %d: %s", what, i+1, rec.problem))
			}
		}
	}
}

// latenciesMS returns the client-side latencies of the replies pick
// accepts, in ms.
func latenciesMS(recs []reqRecord, pick func(reqRecord) bool) []float64 {
	var v []float64
	for _, r := range recs {
		if r.problem == "" && pick(r) {
			v = append(v, r.latency.Seconds()*1e3)
		}
	}
	return v
}

func anyReply(reqRecord) bool { return true }

// runServe runs a serve workload. Untraced: the set-up is repeated for its
// median, the last instance serves the timed window, and the end-to-end
// metrics come from the client's clock and the replies. Traced: half the
// window against a service without obs and half against one with it; the
// per-layer metrics come from the second, the overhead from the two.
func runServe(ctx context.Context, cfg runConfig, w serveWorkload, rec *recorder) (*outcome, error) {
	run := &outcome{}
	reqs := w.requestSequence(cfg.seed)
	window := time.Duration(cfg.seconds * float64(time.Second))
	origin := time.Now()

	if !cfg.traced {
		var setups []float64
		for i := 1; i < w.setups; i++ {
			srv, took, _, err := w.setUp(ctx, cfg.promserve, false)
			if err != nil {
				return nil, err
			}
			if _, err := srv.stop(); err != nil {
				return nil, err
			}
			setups = append(setups, took.Seconds())
		}
		ph, err := w.runPhase(ctx, cfg, reqs, window, false, origin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ph.setup.Seconds())
		ref, err := buildReference(w.withWarmUp(), usedKeys(ph.before, ph.recs))
		if err != nil {
			return nil, err
		}
		run.check(ph.before, ref, "warm-up")
		run.check(ph.recs, ref, "request")

		lat := latenciesMS(ph.recs, anyReply)
		var iters, rss []float64
		for _, r := range ph.recs {
			if r.problem == "" {
				iters = append(iters, float64(r.resp.Iterations))
				rss = append(rss, r.rssMB)
			}
		}
		if len(lat) == 0 {
			return run, errors.New("bench: no request succeeded")
		}
		rec.set("time_to_solution_s", typicalRequest(ph.recs, func(r reqRecord) float64 { return r.latency.Seconds() }))
		rec.set("setup_s", median(setups))
		rec.set("solve_s", typicalRequest(ph.recs, func(r reqRecord) float64 { return float64(r.resp.SolveNs) / 1e9 }))
		rec.set("iterations", sum(iters)/float64(len(iters)))
		rec.set("rss_mb", sum(rss)/float64(len(rss)))
		rec.set("rps", float64(len(lat))/ph.window.Seconds())
		rec.set("req_p95_ms", tail95(lat))
		return run, nil
	}

	plain, err := w.runPhase(ctx, cfg, reqs, window/2, false, origin)
	if err != nil {
		return nil, err
	}
	traced, err := w.runPhase(ctx, cfg, reqs, window/2, true, origin)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(w.withWarmUp(), usedKeys(plain.before, plain.recs, traced.before, traced.recs))
	if err != nil {
		return nil, err
	}
	run.check(plain.before, ref, "untraced warm-up")
	run.check(plain.recs, ref, "untraced request")
	run.check(traced.before, ref, "warm-up")
	run.check(traced.recs, ref, "request")
	if len(latenciesMS(traced.recs, anyReply)) == 0 || len(latenciesMS(plain.recs, anyReply)) == 0 {
		return run, errors.New("bench: no request succeeded")
	}
	serveLayers(plain, traced, ref, rec)
	probeMachine(rec, cfg.sz.triadBytes)

	path, err := writeTrace(cfg.outDir, cfg.workload, traced.tracer.spans, map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "machine": readMachine(),
		"server_obs_events": traced.vars.Obs.Events,
	})
	if err != nil {
		return nil, err
	}
	run.tracePath = path
	return run, nil
}

// usedKeys returns the key indexes that were requested at least once.
func usedKeys(sets ...[]reqRecord) map[int]bool {
	used := map[int]bool{}
	for _, recs := range sets {
		for _, r := range recs {
			used[r.key] = true
		}
	}
	return used
}

// serveLayers derives the per-layer metrics of a serve workload from the
// traced phase: the serve layer from the replies and /v1/cache, the solver
// layers from the obs profile the service publishes on /debug/vars. Times
// are per request, so they compare across windows of different length.
func serveLayers(plain, traced *phase, ref *reference, rec *recorder) {
	recs := traced.recs
	ok := latenciesMS(recs, anyReply)
	n := float64(len(ok))
	hit := func(r reqRecord) bool { return r.resp.CacheHit }
	miss := func(r reqRecord) bool { return !r.resp.CacheHit }
	hits := latenciesMS(recs, hit)
	misses := latenciesMS(recs, miss)
	var coldSetup, solve, overhead []float64
	var latSum, overSum float64
	for _, r := range recs {
		if r.problem != "" {
			continue
		}
		if !r.resp.CacheHit {
			coldSetup = append(coldSetup, float64(r.resp.SetupNs)/1e6)
		}
		solve = append(solve, float64(r.resp.SolveNs)/1e6)
		over := r.latency.Seconds()*1e3 - float64(r.resp.SetupNs+r.resp.SolveNs)/1e6
		overhead = append(overhead, over)
		latSum += r.latency.Seconds() * 1e3
		overSum += over
	}
	extraBuilds := 0.0
	for _, e := range traced.cache.Entries {
		extraBuilds += float64(e.Builds - 1)
	}
	rec.set("serve.req_p50_ms", median(ok))
	rec.set("serve.cache_hit_ratio", float64(len(hits))/n)
	rec.set("serve.cache_evictions", float64(traced.cache.Evictions-traced.cache0.Evictions))
	rec.set("serve.extra_mg_builds", extraBuilds)
	rec.set("serve.rejected", float64(traced.health.Rejected))
	rec.set("serve.peak_rss_mb", traced.peakMB)
	rec.set("serve.cold_setup_ms_p50", median(coldSetup))
	rec.set("serve.miss_ms_p50", median(misses))
	rec.set("serve.hit_ms_p50", median(hits))
	rec.set("serve.solve_ms_p50", median(solve))
	rec.set("serve.overhead_ms_p50", median(overhead))
	rec.set("serve.overhead_ms_p95", percentile(overhead, 0.95))
	rec.set("serve.build_geometry_ms", median(ref.buildGeometryMS))
	rec.set("serve.fingerprint_ms", median(ref.fingerprintMS))

	// The service's own obs books over the timed window (the reading
	// after it minus the one before, so prefill and warm-up are left out), per request.
	prof, prof0 := &traced.vars.Obs, &traced.vars0.Obs
	per := func(event string) float64 { return (obsSeconds(prof, event) - obsSeconds(prof0, event)) / n }
	rec.set("core.coarsen_s", per("core.coarsen"))
	for name, ev := range obsCoreChildren {
		rec.set(name, per(ev))
	}
	setup, galerkin, apply, fpcg := per("mg.setup"), per("mg.setup.galerkin"), per("mg.apply"), per("krylov.fpcg")
	applies := float64(prof.Counter("mg.applies") - prof0.Counter("mg.applies"))
	iterations := float64(prof.Counter("krylov.iterations") - prof0.Counter("krylov.iterations"))
	rec.set("multigrid.setup_s", setup)
	rec.set("multigrid.galerkin_s", galerkin)
	rec.set("multigrid.setup_unattributed_s", setup-galerkin)
	rec.set("multigrid.apply_s", apply)
	rec.set("multigrid.applies", applies/n)
	if applies > 0 {
		rec.set("multigrid.apply_ms_per_call", apply*n*1e3/applies)
	}
	rec.set("smooth.cg_s", per("smooth.cg"))
	rec.set("krylov.fpcg_s", fpcg)
	rec.set("krylov.self_s", fpcg-apply)
	rec.set("krylov.iterations", iterations/n)
	if iterations > 0 {
		rec.set("krylov.ms_per_iteration", fpcg*n*1e3/iterations)
	}

	m0, m1 := traced.vars0.Memstats, traced.vars.Memstats
	rec.set("go.alloc_mb_per_rep", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/n)
	rec.set("go.gc_cycles_per_rep", float64(m1.NumGC-m0.NumGC)/n)
	rec.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/n)
	latency := func(r reqRecord) float64 { return r.latency.Seconds() }
	rec.set("obs.trace_overhead_ratio", typicalRequest(recs, latency)/typicalRequest(plain.recs, latency))
	rec.set("obs.unattributed_share", overSum/latSum)
}
