package smooth

import "prometheus/internal/obs"

// evCG is the smoother's observability event: one span per smoothing call,
// block solves included.
var evCG = obs.Register("smooth.cg")
