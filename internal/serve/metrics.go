package serve

import (
	"prometheus/internal/obs"
)

// Service metrics, registered once in the shared obs registry and
// exposed in Prometheus text format by /metrics (obs.WritePrometheus).
// Names are tree-unique string constants (obs-discipline); the labeled
// families carry bounded label sets only — routes are the fixed route
// table, statuses are HTTP codes, stop reasons the six of
// krylov.StopReason — so series cardinality is bounded by construction.
var (
	// mHTTPRequests counts requests by route and status code.
	mHTTPRequests = obs.NewCounterVec("serve.http.requests", "route", "status")
	// mHTTPLatency distributes request wall time (ns) by route/status.
	mHTTPLatency = obs.NewHistogramVec("serve.http.request_ns", "route", "status")
	// mPanics counts requests whose handler panicked and was answered 500
	// by the recovering middleware, by route.
	mPanics = obs.NewCounterVec("serve.http.panics", "route")
	// mShed counts requests turned away with 503 by admission control.
	mShed = obs.NewCounter("serve.shed")
	// gAdmWaiting gauges solve requests currently blocked waiting for an
	// admission slot (the wait=true queue depth).
	gAdmWaiting = obs.NewGauge("serve.admission.waiting")
	// Cache outcome counters, fed by the hierarchy cache at the same
	// sites that update its JSON totals.
	mCacheHits   = obs.NewCounter("serve.cache.hits")
	mCacheMisses = obs.NewCounter("serve.cache.misses")
	mCacheEvict  = obs.NewCounter("serve.cache.evictions")
	// mSolves counts completed solves.
	mSolves = obs.NewCounter("serve.solve.total")
	// mSolveStops counts completed solves by why the Krylov iteration
	// ended (krylov.StopReason: converged, max_iters, indefinite, ...).
	mSolveStops = obs.NewCounterVec("serve.solve.stops", "reason")
	// evLoad spans a request's load reduction: its scaled load written
	// through the entry's load map into the lease's right-hand side.
	evLoad = obs.Register("serve.load")
	// evReply spans a solved request's reply: the solution expanded to the
	// full numbering, its hash, and the response encoded and written.
	evReply = obs.Register("serve.reply")
)
