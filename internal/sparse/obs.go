package sparse

import "prometheus/internal/obs"

// Observability events. Separate CSR/BSR SpMV events let the phase
// benchmarks report measured Mflop/s per storage format.
var (
	evSpMVCSR    = obs.Register("sparse.spmv.csr")
	evSpMVBSR    = obs.Register("sparse.spmv.bsr")
	evSpMVCSRPar = obs.Register("sparse.spmv.csr.par")
	evSpMVBSRPar = obs.Register("sparse.spmv.bsr.par")
)
