package sparse

import (
	"prometheus/internal/obs"
	"prometheus/internal/pool"
)

// MulVecParallel is MulVec on a pool the caller names: the same dispatch
// of the same MulVecRange, without the grain and busy rules of the shared
// set, for tests and benchmarks that fix the width. The per-row arithmetic
// is identical on every partition, so the product is bitwise equal to the
// serial one for any worker count (TestMulVecParallelBitwise). BSR
// dispatches block-aligned chunks so every participant runs the
// register-blocked fast path; the ragged fallback is reached only by a
// misaligned final clamp, which the aligned partition never produces.

// MulVecParallel computes y = A·x with rows partitioned over p's workers.
// The result is bitwise identical to MulVec.
func (a *CSR) MulVecParallel(p *pool.Pool, x, y []float64) {
	if len(x) != a.NCols || len(y) != a.NRows {
		panic("sparse: MulVecParallel dimension mismatch")
	}
	sp := obs.Start(evSpMVCSRPar)
	p.Dispatch(a, x, y, a.NRows, 1)
	sp.EndFlops(2 * int64(len(a.ColIdx)))
}

// MulVecParallel computes y = A·x with scalar rows partitioned over p's
// workers in block-aligned chunks. Bitwise identical to MulVec.
func (a *BSR) MulVecParallel(p *pool.Pool, x, y []float64) {
	if len(x) != a.Cols() || len(y) != a.Rows() {
		panic("sparse: BSR.MulVecParallel dimension mismatch")
	}
	sp := obs.Start(evSpMVBSRPar)
	p.Dispatch(a, x, y, a.Rows(), a.B)
	sp.EndFlops(a.MulVecFlops())
}

// ParallelOperator is implemented by storage formats whose product can
// run on a worker pool. Both assembled storages qualify.
type ParallelOperator interface {
	Operator
	MulVecParallel(p *pool.Pool, x, y []float64)
}

// Compile-time conformance for both storage formats.
var (
	_ ParallelOperator = (*CSR)(nil)
	_ ParallelOperator = (*BSR)(nil)
)

// DispatchAlign returns the partition alignment a row-range dispatch over
// op must respect: the block size for blocked storage (so chunks hit the
// blocked fast path and never split a node), 1 otherwise.
func DispatchAlign(op Operator) int {
	if ab, ok := op.(*BSR); ok {
		return ab.B
	}
	return 1
}
