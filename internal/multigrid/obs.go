package multigrid

import (
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// Observability events and metrics for the Epimetheus layer: hierarchy
// setup (with the Galerkin triple products and the per-level smoother
// construction — graph partition and block gather/factorization for the
// domain smoother — timed separately), the preconditioner applies, and the
// coarsest-grid direct solves.
var (
	evSetup             = obs.Register("mg.setup")
	evGalerkin          = obs.Register("mg.setup.galerkin")
	evSmoother          = obs.Register("mg.setup.smoother")
	evSmootherPartition = obs.Register("mg.setup.smoother.partition")
	evSmootherFactor    = obs.Register("mg.setup.smoother.factor")
	evApply             = obs.Register("mg.apply")
	evCoarse            = obs.Register("mg.coarse_direct")

	cApplies = obs.NewCounter("mg.applies")
)

// storageName labels a level operator for obs.RecordLevel.
func storageName(a sparse.Operator) string {
	switch a.(type) {
	case *sparse.BSR:
		return "bsr"
	case *sparse.CSR:
		return "csr"
	default:
		if l, ok := a.(sparse.StorageLabeler); ok {
			return l.StorageLabel()
		}
		return "op"
	}
}
