package pool

import "prometheus/internal/obs"

// Observability events. pool.task spans one helper's share of a dispatch
// on its lane (the dispatcher's share sits inside its caller's span);
// pool.rows counts the rows each lane ran, so the log view exposes the
// balance directly; pool.items counts the items of indexed dispatches
// (block solves) the same way.
var (
	evPoolTask  = obs.Register("pool.task")
	evPoolRows  = obs.Register("pool.rows")
	evPoolItems = obs.Register("pool.items")
)

// The dispatch decision, counted where it is taken on the shared set: a
// deployment whose serial_busy grows beside pooled has concurrent
// requests starving each other of helpers. A one-core process takes no
// decision above the grain and counts nothing there.
var (
	mPooled = obs.NewCounter("pool.dispatch.pooled")
	mGrain  = obs.NewCounter("pool.dispatch.serial_grain")
	mBusy   = obs.NewCounter("pool.dispatch.serial_busy")
)
