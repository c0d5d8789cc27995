package serve

import (
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"prometheus/internal/obs"
)

// statusWriter records the response status code. It forwards Flush so
// the streaming solve path keeps flushing NDJSON lines through the
// instrumentation layer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records and forwards the first status code written; a
// response has one status line, so later calls are dropped (the panic
// answer arrives after a streamed response has sent its own).
func (w *statusWriter) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Write defaults the status to 200 like net/http does.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the request observability layer:
//
//   - W3C traceparent ingestion — a valid inbound header's trace id is
//     adopted (so external callers correlate their traces with ours),
//     otherwise a fresh id is minted; the response always echoes a
//     traceparent carrying the request's trace id and this service's
//     span id;
//   - one obs.Task per request, attached to the request context, so
//     every layer below (session → multigrid → krylov/smooth →
//     pool/par) attributes its work to this request;
//   - panic recovery (see recovered): a handler that panics answers 500
//     and is counted and logged like any other request;
//   - route/status request counters and a latency histogram;
//   - one structured request log line; the trace id attribute is
//     stamped by the TraceHandler from the context.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		traceID, parent, okTP := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !okTP {
			traceID = ""
		}
		task := obs.NewTask(traceID)
		if okTP {
			task.SetParent(parent)
		}
		w.Header().Set("Traceparent", obs.Traceparent(task.TraceID(), obs.NewSpanID()))
		ctx := obs.WithTask(r.Context(), task)
		sw := &statusWriter{ResponseWriter: w}
		s.recovered(route, h, sw, r.WithContext(ctx))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		code := strconv.Itoa(status)
		durNs := time.Since(t0).Nanoseconds()
		mHTTPRequests.With(route, code).Inc()
		mHTTPLatency.With(route, code).Observe(durNs)
		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("route", route),
			slog.String("method", r.Method),
			slog.Int("status", status),
			slog.Int64("dur_ns", durNs),
		)
	}
}

// recovered runs h and turns a panic inside it into an answer: 500 with
// the error envelope and the request's trace id (or, once a streamed
// response is under way, a last line carrying them), one error record
// with the panic value and its stack, and a count on the route. Without
// it net/http would drop the connection and the caller would learn
// nothing. The handler's own defers have released its admission slot,
// session, cache reference and multigrid lease by the time this runs.
func (s *Server) recovered(route string, h http.HandlerFunc, sw *statusWriter, r *http.Request) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		mPanics.With(route).Inc()
		ctx := r.Context()
		s.log.LogAttrs(ctx, slog.LevelError, "panic",
			slog.String("route", route),
			slog.Any("panic", p),
			slog.String("stack", string(debug.Stack())),
		)
		body := errorBody{Error: "serve: internal error: the request panicked", TraceID: obs.FromContext(ctx).TraceID()}
		if err := writeJSON(sw, http.StatusInternalServerError, body); err != nil {
			return
		}
	}()
	h(sw, r)
}
