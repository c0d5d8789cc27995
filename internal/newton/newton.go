// Package newton implements the paper's nonlinear solution strategy
// (section 7.2): displacement-driven load stepping with a full Newton
// method, the dynamic linear-solve tolerance heuristic
// rtol_1 = 1e-4, rtol_m = min(1e-3, 1e-1·‖r_m‖/‖r_{m-1}‖), and convergence
// declared when the energy norm of the correction falls to 1e-20 times
// that of the first correction.
package newton

import (
	"fmt"
	"math"

	"prometheus/internal/fem"
	"prometheus/internal/krylov"
	"prometheus/internal/la"
	"prometheus/internal/sparse"
)

// The paper's Newton schedule (section 7.2).
const (
	energyTol  = 1e-20 // relative energy-norm convergence
	rtol1      = 1e-4  // first linear tolerance of a load step
	rtolMax    = 1e-3  // cap for later tolerances
	rtolFactor = 1e-1  // residual-ratio factor of later tolerances
)

// Config drives the nonlinear solve.
type Config struct {
	Steps     int // load steps (paper: 10)
	MaxNewton int // Newton iterations per step (safety bound)
	MaxPCG    int // PCG iteration bound per linear solve
}

func (c Config) withDefaults() Config {
	if c.Steps == 0 {
		c.Steps = 10
	}
	if c.MaxNewton == 0 {
		c.MaxNewton = 30
	}
	if c.MaxPCG == 0 {
		c.MaxPCG = 500
	}
	return c
}

// PreconFactory builds a preconditioner for a freshly assembled (reduced)
// tangent — the per-matrix "matrix setup" phase of the paper (Galerkin
// products and smoother factorizations). The tangent arrives as a storage-
// agnostic Operator, the reduced CSR; the hierarchy's constructor
// (multigrid.Build) decides whether to apply it in blocks.
type PreconFactory func(k sparse.Operator) (krylov.Preconditioner, error)

// StepStats records one load step.
type StepStats struct {
	NewtonIters  int
	PCGIters     []int     // per Newton iteration
	RTols        []float64 // dynamic linear tolerance per Newton iteration
	PlasticFrac  float64   // fraction of hard-material integration points yielded
	ResidualDrop float64   // ‖r_last‖/‖r_1‖
}

// Stats records the whole nonlinear solve.
type Stats struct {
	Steps           []StepStats
	FirstSolveIters int // PCG iterations of the very first linear solve
	TotalPCG        int
	TotalNewton     int
	LinearFlops     int64
}

// Solve runs the displacement-driven Newton solve: the constraint values of
// cons are ramped linearly over cfg.Steps steps. hardMat identifies the
// material whose plastic fraction is tracked (pass -1 to skip).
// Returns the converged displacement field (full dof numbering).
func Solve(p *fem.Problem, cons *fem.Constraints, cfg Config, factory PreconFactory, hardMat int) ([]float64, *Stats, error) {
	cfg = cfg.withDefaults()
	n := p.M.NumDOF()
	u := make([]float64, n)
	stats := &Stats{}

	// Homogeneous constraints for the Newton increments.
	zeroCons := cons.Homogeneous()
	dm := zeroCons.NewDofMap(n)

	for step := 1; step <= cfg.Steps; step++ {
		scale := float64(step) / float64(cfg.Steps)
		cons.Scaled(scale).Apply(u)

		ss := StepStats{}
		var firstEnergy, prevRNorm, firstRNorm float64
		rtol := rtol1

		for m := 1; m <= cfg.MaxNewton; m++ {
			k, fint, err := p.AssembleTangent(u)
			if err != nil {
				return nil, stats, fmt.Errorf("newton: step %d iter %d: %w", step, m, err)
			}
			// Residual r = -fint on free dofs (no external loads; the
			// drive is the prescribed displacement already in u).
			kred, lm := zeroCons.Reduce(k, dm)
			rred := make([]float64, dm.NumFree())
			lm.Apply(rred, fint, -1)
			rnorm := la.Norm2(rred)
			if m == 1 {
				firstRNorm = rnorm
			} else {
				// Dynamic tolerance heuristic.
				rtol = math.Min(rtolMax, rtolFactor*rnorm/prevRNorm)
				if rtol <= 0 || math.IsNaN(rtol) {
					rtol = rtolMax
				}
			}
			prevRNorm = rnorm

			pre, err := factory(kred)
			if err != nil {
				return nil, stats, fmt.Errorf("newton: preconditioner: %w", err)
			}
			ss.RTols = append(ss.RTols, rtol)
			du := make([]float64, kred.Rows())
			res := krylov.FPCG(kred, rred, du, pre, rtol, cfg.MaxPCG)
			stats.LinearFlops += res.Flops
			ss.PCGIters = append(ss.PCGIters, res.Iterations)
			stats.TotalPCG += res.Iterations
			if stats.FirstSolveIters == 0 {
				stats.FirstSolveIters = res.Iterations
			}
			// A solve poisoned by NaN or Inf stops before MaxPCG and leaves
			// du meaningless; every other early stop keeps the best iterate.
			if res.Reason == krylov.StopNonFinite {
				return nil, stats, fmt.Errorf("newton: step %d iter %d: linear solver stopped after %d iterations (%v)", step, m, res.Iterations, res.Reason)
			}
			if !res.Converged && res.Iterations >= cfg.MaxPCG {
				return nil, stats, fmt.Errorf("newton: step %d iter %d: linear solver hit iteration bound %d (%v)", step, m, cfg.MaxPCG, res.Reason)
			}

			// Energy norm |δuᵀ·r| of the correction.
			energy := math.Abs(la.Dot(du, rred))
			if m == 1 {
				firstEnergy = energy
			}
			// Apply the correction.
			for rIdx, d := range dm.Red2Full {
				u[d] += du[rIdx]
			}
			ss.NewtonIters = m
			stats.TotalNewton++
			if firstEnergy == 0 || energy <= energyTol*firstEnergy {
				break
			}
		}
		if firstRNorm > 0 {
			ss.ResidualDrop = prevRNorm / firstRNorm
		}
		if err := p.Commit(u); err != nil {
			return nil, stats, err
		}
		if hardMat >= 0 {
			ss.PlasticFrac = p.PlasticFraction(hardMat)
		}
		stats.Steps = append(stats.Steps, ss)
	}
	return u, stats, nil
}
