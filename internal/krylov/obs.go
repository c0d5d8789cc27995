package krylov

import "prometheus/internal/obs"

// Observability events and metrics. FPCGMonitoredCtx wraps fpcg in one
// whole-solve span (the body returns early on convergence or breakdown,
// so the wrapper keeps spans balanced), and fpcg streams the
// per-iteration residual norms into the obs convergence history.
var (
	evFPCG = obs.Register("krylov.fpcg")

	cIterations = obs.NewCounter("krylov.iterations")
)
