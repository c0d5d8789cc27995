// Package krylov implements the outer iterative solver: flexible
// conjugate gradients, which the paper preconditions with one full
// multigrid cycle (section 7.2); with no preconditioner it is plain CG.
// Iteration counts, residual histories and flop counts are recorded for
// the efficiency analysis of section 6.
package krylov

import (
	"context"
	"math"

	"prometheus/internal/la"
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// Preconditioner approximately solves A·z = r from a zero initial guess.
type Preconditioner interface {
	Apply(r, z []float64)
}

// StopReason says why a Krylov iteration ended. Converged is the only one
// that sets Result.Converged; every other reason names what stopped a solve
// short of its tolerance.
type StopReason int

const (
	// StopMaxIters: the iteration budget ran out (the zero value).
	StopMaxIters StopReason = iota
	// StopConverged: the relative residual reached rtol.
	StopConverged
	// StopIndefinite: pᵀAp was not positive, so the operator (or the
	// preconditioned one) is not positive definite.
	StopIndefinite
	// StopNonFinite: a NaN or an infinity reached the residual norm or
	// pᵀAp; every later iterate would be NaN.
	StopNonFinite
	// StopBreakdown: r·z vanished, so the preconditioner left no search
	// direction.
	StopBreakdown
	// StopCancelled: the monitor vetoed the next iteration.
	StopCancelled
)

// String returns the reason as it appears in responses and metric labels.
func (r StopReason) String() string {
	switch r {
	case StopMaxIters:
		return "max_iters"
	case StopConverged:
		return "converged"
	case StopIndefinite:
		return "indefinite"
	case StopNonFinite:
		return "non_finite"
	case StopBreakdown:
		return "breakdown"
	case StopCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Result reports the outcome of a Krylov solve.
type Result struct {
	Iterations int
	Residuals  []float64 // ‖r‖₂ after each iteration (index 0 = initial)
	Flops      int64
	Converged  bool
	// Reason is why the iteration ended; Converged == (Reason == StopConverged).
	Reason StopReason
}

// stop records why the iteration ended.
func (r *Result) stop(reason StopReason) {
	r.Reason = reason
	r.Converged = reason == StopConverged
}

// curvatureStop classifies a pᵀAp that is not a positive number: poisoned
// arithmetic, a null direction (r·z was zero), or a genuinely indefinite
// operator.
func curvatureStop(pap, rz float64) StopReason {
	switch {
	case !finite(pap):
		return StopNonFinite
	case rz == 0:
		return StopBreakdown
	default:
		return StopIndefinite
	}
}

// identity is the trivial preconditioner.
type identity struct{}

func (identity) Apply(r, z []float64) { copy(z, r) }

// finite reports whether v is neither NaN nor infinite. A residual norm
// that is not finite ends the CG iterations with Converged=false: every
// later iterate would be NaN, and Inf <= rtol·Inf would read as converged.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Monitor observes a solve in flight: it is called once with the initial
// residual (iter 0) and once per iteration with the current residual norm.
// Returning false cancels the solve — the iteration stops where it is and
// the Result reports StopCancelled with the history so far. A monitor
// must not retain or mutate solver state; it exists so long-running
// callers (the serve streaming path) can forward progress and honor
// context cancellation without polling.
type Monitor func(iter int, rnorm float64) bool

// FPCG solves A·x = b with flexible preconditioned conjugate gradients
// (Polak-Ribière beta), which remains robust when the preconditioner is not
// exactly symmetric — the full-multigrid (FMG) cycle the paper
// preconditions with is such an operator. For a symmetric preconditioner
// FPCG reproduces standard PCG at the cost of one extra stored vector;
// with a nil preconditioner it is plain CG.
func FPCG(a sparse.Operator, b, x []float64, m Preconditioner, rtol float64, maxIter int) Result {
	return FPCGMonitoredCtx(context.TODO(), a, b, x, m, rtol, maxIter, nil)
}

// FPCGMonitoredCtx is FPCG with a progress monitor and request-scoped
// observability: the obs task carried by ctx (if any) is credited with
// the solve's outer-iteration flops and iteration count, in addition to
// the process-global stats. Monitor and task only observe: the iteration
// performs the same floating-point operations in the same order, so
// results are bitwise identical to FPCG (a monitor may cut the iteration
// short). The span's flop credit covers fpcg's own work (matrix-vector
// products and vector ops), not the preconditioner applications — those
// record under their own events, so per-event totals never double count.
func FPCGMonitoredCtx(ctx context.Context, a sparse.Operator, b, x []float64, m Preconditioner, rtol float64, maxIter int, mon Monitor) Result {
	t := obs.FromContext(ctx)
	sp := obs.StartTask(evFPCG, t)
	res := fpcg(a, b, x, m, rtol, maxIter, mon)
	sp.EndFlops(res.Flops)
	cIterations.Add(int64(res.Iterations))
	t.AddIterations(int64(res.Iterations))
	return res
}

func fpcg(a sparse.Operator, b, x []float64, m Preconditioner, rtol float64, maxIter int, mon Monitor) Result {
	n := a.Rows()
	if m == nil {
		m = identity{}
	}
	r := make([]float64, n)
	rPrev := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	var res Result

	a.Residual(b, x, r)
	res.Flops += a.MulVecFlops() + int64(n)
	bnorm := la.Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	rnorm := la.Norm2(r)
	res.Residuals = append(res.Residuals, rnorm)
	obs.RecordResidual(0, rnorm)
	if mon != nil && !mon(0, rnorm) {
		res.stop(StopCancelled)
		return res
	}
	if !finite(rnorm) {
		res.stop(StopNonFinite)
		return res
	}
	if rnorm <= rtol*bnorm {
		res.stop(StopConverged)
		return res
	}
	m.Apply(r, z)
	copy(p, z)
	rz := la.Dot(r, z)
	res.Flops += 2 * int64(n)

	for it := 0; it < maxIter; it++ {
		a.MulVec(p, ap)
		pap := la.Dot(p, ap)
		res.Flops += a.MulVecFlops() + 2*int64(n)
		if !(pap > 0) {
			res.stop(curvatureStop(pap, rz))
			return res
		}
		alpha := rz / pap
		la.Axpy(alpha, p, x)
		copy(rPrev, r)
		la.Axpy(-alpha, ap, r)
		res.Flops += 4 * int64(n)
		rnorm = la.Norm2(r)
		res.Flops += 2 * int64(n)
		res.Iterations++
		res.Residuals = append(res.Residuals, rnorm)
		obs.RecordResidual(res.Iterations, rnorm)
		if mon != nil && !mon(res.Iterations, rnorm) {
			res.stop(StopCancelled)
			return res
		}
		if !finite(rnorm) {
			res.stop(StopNonFinite)
			return res
		}
		if rnorm <= rtol*bnorm {
			res.stop(StopConverged)
			return res
		}
		m.Apply(r, z)
		// Polak-Ribière: beta = z·(r - rPrev) / (z_prev·r_prev) = flexible.
		num := 0.0
		for i := 0; i < n; i++ {
			num += z[i] * (r[i] - rPrev[i])
		}
		res.Flops += 3 * int64(n)
		beta := num / rz
		if beta < 0 {
			beta = 0 // restart direction
		}
		rz = la.Dot(r, z)
		res.Flops += 2 * int64(n)
		if rz == 0 {
			res.stop(StopBreakdown)
			return res
		}
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		res.Flops += 2 * int64(n)
	}
	return res
}
