package multigrid

import (
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// Observability events and metrics for the Epimetheus layer: hierarchy
// setup (with its symbolic phase, the Galerkin triple products — symbolic
// and numeric — and the per-level smoother construction — graph partition
// and block gather/factorization for the domain smoother — timed
// separately), the preconditioner applies, and the coarsest-grid direct
// solves.
var (
	evSetup             = obs.Register("mg.setup")
	evPlan              = obs.Register("mg.setup.plan")
	evGalerkin          = obs.Register("mg.setup.galerkin")
	evSmoother          = obs.Register("mg.setup.smoother")
	evSmootherPartition = obs.Register("mg.setup.smoother.partition")
	evSmootherFactor    = obs.Register("mg.setup.smoother.factor")
	evApply             = obs.Register("mg.apply")
	evCoarse            = obs.Register("mg.coarse_direct")

	cApplies = obs.NewCounter("mg.applies")
	// A hierarchy build either plans and fills or, when the operator's
	// pattern repeats, only fills: a Newton solve shows one plan built and
	// a reuse per rebuild after it.
	cPlanBuilt  = obs.NewCounter("multigrid.plan.built")
	cPlanReused = obs.NewCounter("multigrid.plan.reused")
)

// storageName labels a level operator for obs.RecordLevel.
func storageName(a sparse.Operator) string {
	switch a.(type) {
	case *sparse.BSR:
		return "bsr"
	case *sparse.CSR:
		return "csr"
	default:
		return "op"
	}
}
