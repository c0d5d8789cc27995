package fem

import "prometheus/internal/obs"

// Observability events for the per-matrix phases ahead of matrix setup
// (the paper's "fine grid creation"): the tangent assembly, with the
// symbolic pattern construction inside it timed separately, and the
// Dirichlet reduction of the assembled system.
var (
	evAssemble        = obs.Register("fem.assemble")
	evAssemblePattern = obs.Register("fem.assemble.pattern")
	evReduce          = obs.Register("fem.reduce")
)
