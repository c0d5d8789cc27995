package smooth

import "prometheus/internal/obs"

// Observability events: one per smoother kind, so the event table
// separates the cost of the smoother actually selected at each level.
var (
	evJacobi      = obs.Register("smooth.jacobi")
	evGaussSeidel = obs.Register("smooth.gauss_seidel")
	evChebyshev   = obs.Register("smooth.chebyshev")
	evDomainBJ    = obs.Register("smooth.domain_block_jacobi")
	evNodeBJ      = obs.Register("smooth.node_block_jacobi")
	evCG          = obs.Register("smooth.cg")
)
