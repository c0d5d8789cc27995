// Package serve implements the promserve solver-as-a-service layer: an
// HTTP/JSON front end over the prometheus solver with session tracking,
// semaphore admission control (backpressure instead of queue growth),
// streaming residual progress, and a hierarchy cache keyed by the
// deterministic mesh fingerprint so repeated geometries skip the
// Prometheus mesh-setup and Galerkin-product phases entirely. Served
// results are bitwise identical to direct solver runs of the same spec.
//
// Every channel has constant capacity, every request-path channel
// operation is select-guarded, and every acquire is released by a defer
// directly under it. Running tests hold the result:
// TestHandleSolveClosesTheBooks drives every exit of the solve handler
// and requires every slot, session, reference and lease back after each,
// and TestCloseStopsTheJanitor requires Close to stop the one goroutine
// the package starts.
package serve

import (
	"expvar"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"prometheus/internal/obs"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// MaxConcurrent bounds concurrently admitted solves (default 4,
	// clamped to admissionCap). Excess requests get 503 backpressure, or
	// block until a slot frees when they opt into wait=true.
	MaxConcurrent int
	// MaxCacheEntries bounds the hierarchy cache (default 8, clamped to
	// cacheEntryCap). Least-recently-used unreferenced entries are
	// evicted beyond it.
	MaxCacheEntries int
	// SweepInterval is the janitor period for cache eviction and health
	// bookkeeping (default 30s).
	SweepInterval time.Duration
	// Log is the base structured logger (default slog.Default). The
	// server wraps it with the trace-id handler, so request-path lines
	// carry the request's trace id automatically.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxCacheEntries == 0 {
		c.MaxCacheEntries = 8
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 30 * time.Second
	}
	return c
}

// Server is the solver service: construct with New, mount Handler on an
// http.Server, and Close on shutdown (stops the janitor and waits for
// it). The Server itself holds no context — cancellation flows in per
// request via r.Context(), and the janitor stops on the done channel.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	adm      *admission
	sessions *sessionManager
	cache    *hierCache

	log *slog.Logger

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	start     time.Time

	requests  atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
}

// New builds the service and starts its janitor goroutine. The obs
// expvar bridge is published so /debug/vars carries the solver profile
// alongside the runtime's expvars.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		adm:      newAdmission(cfg.MaxConcurrent),
		sessions: newSessionManager(),
		cache:    newHierCache(cfg.MaxCacheEntries),
		done:     make(chan struct{}),
		start:    time.Now(),
	}
	obs.PublishExpvar()
	base := cfg.Log
	if base == nil {
		base = slog.Default()
	}
	s.log = slog.New(NewTraceHandler(base.Handler()))

	s.mux.HandleFunc("/v1/solve", s.instrument("/v1/solve", s.handleSolve))
	s.mux.HandleFunc("/v1/sessions", s.instrument("/v1/sessions", s.handleSessions))
	s.mux.HandleFunc("/v1/sessions/", s.instrument("/v1/sessions/{id}/trace", s.handleSessionTrace))
	s.mux.HandleFunc("/v1/cache", s.instrument("/v1/cache", s.handleCache))
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.wg.Add(1)
	go s.janitor()
	return s
}

// Handler returns the service mux: solve API, session/cache listings,
// health, and the /debug observability endpoints, all on one port.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the janitor and waits for it. Safe to call more than once.
// In-flight requests are the http.Server's to drain (Shutdown).
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
}

// janitor periodically re-applies cache eviction. It terminates when the
// done channel closes; the ticker receive sits in the same select, so the
// goroutine can never block past Close.
func (s *Server) janitor() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.cache.sweep()
		}
	}
}

// Health is the /healthz JSON document.
type Health struct {
	// Status is "ok" whenever the server answers.
	Status string `json:"status"`
	// UptimeNs is time since New.
	UptimeNs int64 `json:"uptime_ns"`
	// ActiveSessions counts solves in flight.
	ActiveSessions int `json:"active_sessions"`
	// TotalSessions counts lifetime solves admitted.
	TotalSessions uint64 `json:"total_sessions"`
	// CacheEntries counts cached hierarchies.
	CacheEntries int `json:"cache_entries"`
	// CacheHits, CacheMisses and CacheEvictions count lifetime cache
	// outcomes.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	// Requests counts solve requests received; Rejected those turned
	// away by admission control; Cancelled those whose client went away
	// mid-solve.
	Requests  int64 `json:"requests"`
	Rejected  int64 `json:"rejected"`
	Cancelled int64 `json:"cancelled"`
}

// health snapshots the service state.
func (s *Server) health() Health {
	live, total, _ := s.sessions.snapshot()
	entries, hits, misses, evictions := s.cache.snapshot()
	return Health{
		Status:         "ok",
		UptimeNs:       time.Since(s.start).Nanoseconds(),
		ActiveSessions: len(live),
		TotalSessions:  total,
		CacheEntries:   len(entries),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evictions,
		Requests:       s.requests.Load(),
		Rejected:       s.rejected.Load(),
		Cancelled:      s.cancelled.Load(),
	}
}
