// Command promserve runs the solver as a long-lived HTTP/JSON service:
// POST /v1/solve solves one of the bundled parametric problems, with
// semaphore admission control, optional streamed residual progress
// (application/x-ndjson), and a hierarchy cache keyed by deterministic
// mesh fingerprint so repeated geometries skip mesh setup and Galerkin
// products entirely. Every solve is flexible CG preconditioned by one full
// multigrid cycle, and its result is bitwise identical to a direct
// promsolve run of the same spec.
//
// Usage:
//
//	promserve [-addr :8080] [-max-concurrent n] [-cache-entries n] [-obs]
//	          [-log text|json] [-log-level info]
//
// Endpoints (one server, one port):
//
//	POST /v1/solve     solve {"problem","size","load_scale","rtol","max_iters","stream",...}
//	GET  /v1/sessions  solves in flight
//	GET  /v1/sessions/{id}/trace   per-request Chrome trace JSON
//	GET  /v1/cache     hierarchy cache contents + hit/miss/eviction totals
//	GET  /metrics      Prometheus text exposition (0.0.4) of the obs registry
//	GET  /healthz      liveness and service counters
//	GET  /debug/vars   expvar, including the obs profile (prometheus_obs)
//	GET  /debug/pprof  runtime profiling
//
// Every request is traced: a valid inbound W3C traceparent header's
// trace id is adopted, otherwise one is minted; the response echoes a
// traceparent, and every log line for the request carries its trace_id.
//
// The process shuts down cleanly on SIGINT/SIGTERM: the listener stops
// accepting, in-flight solves drain (bounded by -drain), and the service
// janitor is stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prometheus/internal/obs"
	"prometheus/internal/serve"
)

// newLogger builds the process logger: text or JSON records on stderr at
// the requested level, wrapped so records carry the request trace id
// whenever one is in the context.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, err
	}
	ho := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, ho)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, ho)
	default:
		return nil, errors.New("promserve: -log must be text or json")
	}
	return slog.New(serve.NewTraceHandler(h)), nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConc := flag.Int("max-concurrent", 4, "max concurrently admitted solves; one solve uses every idle core, concurrent ones degrade towards one core each")
	cacheEntries := flag.Int("cache-entries", 8, "max cached hierarchies")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain timeout for in-flight solves")
	withObs := flag.Bool("obs", true, "record obs events/metrics (published on /debug/vars)")
	logFormat := flag.String("log", "text", "log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()

	log, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		slog.LogAttrs(context.Background(), slog.LevelError, "bad logging flags", slog.Any("err", err))
		os.Exit(2)
	}
	slog.SetDefault(log)

	if *withObs {
		obs.EnableWith(obs.Config{RingCap: 1 << 17})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	svc := serve.New(serve.Config{
		MaxConcurrent:   *maxConc,
		MaxCacheEntries: *cacheEntries,
		Log:             log,
	})
	defer svc.Close()

	hs := &http.Server{Addr: *addr, Handler: svc.Handler()}
	// Shutdown bridge: when the signal context fires, stop accepting and
	// drain. ListenAndServe below then returns ErrServerClosed and main
	// unwinds through the deferred svc.Close.
	go func() {
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			log.LogAttrs(context.Background(), slog.LevelError, "shutdown", slog.Any("err", err))
		}
	}()

	log.LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("addr", *addr),
		slog.Int("max_concurrent", *maxConc),
		slog.Int("cache_entries", *cacheEntries),
		slog.Bool("obs", *withObs),
	)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.LogAttrs(context.Background(), slog.LevelError, "serve failed", slog.Any("err", err))
		os.Exit(1)
	}
	log.LogAttrs(context.Background(), slog.LevelInfo, "drained, exiting")
}
