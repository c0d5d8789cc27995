// Package krylov implements the outer iterative solvers: conjugate
// gradients with and without preconditioning (the paper's solver is CG
// preconditioned with one full multigrid cycle) and restarted GMRES (the
// solver family of the Owen et al. comparison [18]). Iteration counts,
// residual histories and flop counts are recorded for the efficiency
// analysis of section 6.
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

// CG solves A·x = b with plain conjugate gradients.
func CG(a sparse.Operator, b, x []float64, rtol float64, maxIter int) Result {
	return PCG(a, b, x, identity{}, rtol, maxIter)
}

// PCG solves A·x = b with preconditioned conjugate gradients, starting from
// the given x. Convergence is declared when ‖b - A·x‖₂ ≤ rtol·‖b‖₂ (the
// paper's relative residual criterion).
func PCG(a sparse.Operator, b, x []float64, m Preconditioner, rtol float64, maxIter int) Result {
	sp := obs.Start(evPCG)
	res := pcg(a, b, x, m, rtol, maxIter)
	sp.EndFlops(res.Flops)
	cIterations.Add(int64(res.Iterations))
	return res
}

func pcg(a sparse.Operator, b, x []float64, m Preconditioner, rtol float64, maxIter int) Result {
	n := a.Rows()
	if m == nil {
		m = identity{}
	}
	r := make([]float64, n)
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
			// Indefinite or poisoned (NaN) operator: abort.
			res.stop(curvatureStop(pap, rz))
			return res
		}
		alpha := rz / pap
		la.Axpy(alpha, p, x)
		la.Axpy(-alpha, ap, r)
		res.Flops += 4 * int64(n)
		rnorm = la.Norm2(r)
		res.Flops += 2 * int64(n)
		res.Iterations++
		res.Residuals = append(res.Residuals, rnorm)
		obs.RecordResidual(res.Iterations, rnorm)
		if !finite(rnorm) {
			res.stop(StopNonFinite)
			return res
		}
		if rnorm <= rtol*bnorm {
			res.stop(StopConverged)
			return res
		}
		m.Apply(r, z)
		rzNew := la.Dot(r, z)
		res.Flops += 2 * int64(n)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		res.Flops += 2 * int64(n)
	}
	return res
}

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
// FPCG reproduces PCG at the cost of one extra stored vector.
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

// GMRES solves A·x = b with restarted GMRES(m) and left preconditioning.
func GMRES(a sparse.Operator, b, x []float64, m Preconditioner, restart int, rtol float64, maxIter int) Result {
	sp := obs.Start(evGMRES)
	res := gmres(a, b, x, m, restart, rtol, maxIter)
	sp.EndFlops(res.Flops)
	cIterations.Add(int64(res.Iterations))
	return res
}

func gmres(a sparse.Operator, b, x []float64, m Preconditioner, restart int, rtol float64, maxIter int) Result {
	n := a.Rows()
	if m == nil {
		m = identity{}
	}
	if restart < 1 {
		restart = 30
	}
	var res Result
	r := make([]float64, n)
	z := make([]float64, n)
	w := make([]float64, n)

	bnorm := la.Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}

	// Krylov basis and Hessenberg (restart+1 columns).
	v := make([][]float64, restart+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, restart+1)
	for i := range h {
		h[i] = make([]float64, restart)
	}
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	g := make([]float64, restart+1)
	yb := make([]float64, restart) // triangular-solve buffer, reused per cycle

	total := 0
	for total < maxIter {
		a.Residual(b, x, r)
		res.Flops += a.MulVecFlops() + int64(n)
		if len(res.Residuals) == 0 {
			rn := la.Norm2(r)
			res.Residuals = append(res.Residuals, rn)
			obs.RecordResidual(0, rn)
		}
		m.Apply(r, z)
		beta := la.Norm2(z)
		res.Flops += 2 * int64(n)
		if beta == 0 {
			res.stop(StopConverged)
			return res
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		copy(v[0], z)
		la.Scal(1/beta, v[0])

		k := 0
		for ; k < restart && total < maxIter; k++ {
			total++
			a.MulVec(v[k], w)
			m.Apply(w, z)
			res.Flops += a.MulVecFlops() + int64(n)
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = la.Dot(z, v[i])
				la.Axpy(-h[i][k], v[i], z)
				res.Flops += 4 * int64(n)
			}
			h[k+1][k] = la.Norm2(z)
			res.Flops += 2 * int64(n)
			if h[k+1][k] != 0 {
				copy(v[k+1], z)
				la.Scal(1/h[k+1][k], v[k+1])
			}
			// Apply accumulated Givens rotations.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			den := math.Hypot(h[k][k], h[k+1][k])
			if den == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k] = h[k][k] / den
				sn[k] = h[k+1][k] / den
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			res.Iterations++
			res.Residuals = append(res.Residuals, math.Abs(g[k+1]))
			obs.RecordResidual(res.Iterations, math.Abs(g[k+1]))
			if math.Abs(g[k+1]) <= rtol*bnorm {
				k++
				res.stop(StopConverged)
				break
			}
		}
		// Solve the triangular system and update x.
		y := yb[:k]
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			y[i] = s / h[i][i]
		}
		for i := 0; i < k; i++ {
			la.Axpy(y[i], v[i], x)
			res.Flops += 2 * int64(n)
		}
		if res.Converged {
			return res
		}
	}
	return res
}
