package newton

import (
	"math"
	"strings"
	"sync"
	"testing"

	"prometheus/internal/core"
	"prometheus/internal/fem"
	"prometheus/internal/krylov"
	"prometheus/internal/material"
	"prometheus/internal/multigrid"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

// mgFactory builds the per-matrix multigrid preconditioner from a fixed
// grid hierarchy (the paper's split: mesh setup once, matrix setup per
// Newton iteration).
func mgFactory(h *core.Hierarchy, dm *fem.DofMap) PreconFactory {
	var rs []*sparse.CSR
	for l := 1; l < h.NumLevels(); l++ {
		r := h.Grids[l].R
		if l == 1 {
			r = multigrid.CompressCols(r, dm.Full2Red, dm.NumFree())
		}
		rs = append(rs, r)
	}
	return func(k sparse.Operator) (krylov.Preconditioner, error) {
		return multigrid.New(k, rs, multigrid.Options{})
	}
}

func setupSpheres() (*fem.Problem, *fem.Constraints, PreconFactory, error) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	// The reduced 3-layer test geometry has shells 17/3 ≈ 5.7× thicker
	// than the paper's, so shell bending stresses are ~(5.7)² ≈ 32× lower;
	// scale the yield stress to keep the test in the yielding regime the
	// full 17-layer geometry reaches with the true Table 1 value.
	s.Models[material.MatHard] = material.J2Plasticity{E: 1, Nu: 0.3, SigmaY: 1e-4, H: 0.002}
	p := fem.NewProblem(s.Mesh, s.Models, true)
	h, err := core.Coarsen(s.Mesh, core.Options{MinCoarse: 30})
	if err != nil {
		return nil, nil, nil, err
	}
	zero := fem.NewConstraints()
	for d := range s.Cons.Fixed {
		zero.FixDof(d, 0)
	}
	dm := zero.NewDofMap(s.Mesh.NumDOF())
	return p, s.Cons, mgFactory(h, dm), nil
}

// crush runs the four-step crush of the test geometry once, for the three
// tests that check different properties of the same solve: a crush is some
// thirty linear solves, and three of them were the slowest package of
// tier-1. A failure of the shared solve fails every test that asks for it.
func crush(t *testing.T) crushResult {
	t.Helper()
	c, err := crushOnce()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const crushSteps = 4

type crushResult struct {
	p     *fem.Problem
	u     []float64
	stats *Stats
}

var crushOnce = sync.OnceValues(func() (crushResult, error) {
	p, cons, factory, err := setupSpheres()
	if err != nil {
		return crushResult{}, err
	}
	u, stats, err := Solve(p, cons, Config{Steps: crushSteps, MaxNewton: 20, MaxPCG: 400}, factory, material.MatHard)
	return crushResult{p, u, stats}, err
})

func TestNonlinearSpheresSmall(t *testing.T) {
	c := crush(t)
	p, u, stats := c.p, c.u, c.stats
	if len(stats.Steps) != crushSteps {
		t.Fatalf("steps recorded = %d", len(stats.Steps))
	}
	// The top surface must carry the full prescribed displacement.
	for v, pt := range p.M.Coords {
		if pt.Z == problems.OctantSide {
			if math.Abs(u[3*v+2]-problems.TotalCrushUz) > 1e-12 {
				t.Fatalf("top vertex %d u_z = %v", v, u[3*v+2])
			}
		}
		if pt.X == 0 && u[3*v] != 0 {
			t.Fatal("symmetry plane violated")
		}
	}
	// Newton must actually converge: the residual drop per step is tiny.
	for i, ss := range stats.Steps {
		if ss.NewtonIters < 1 {
			t.Fatalf("step %d: no Newton iterations", i)
		}
		if ss.ResidualDrop > 1e-4 {
			t.Fatalf("step %d: residual only dropped to %v", i, ss.ResidualDrop)
		}
		if len(ss.PCGIters) != ss.NewtonIters {
			t.Fatal("PCG iteration record inconsistent")
		}
	}
	// Crushing a shelled sphere by 29%% must drive some hard material
	// plastic by the final step.
	final := stats.Steps[len(stats.Steps)-1].PlasticFrac
	if final <= 0 {
		t.Fatal("no plasticity developed")
	}
	if stats.FirstSolveIters <= 0 || stats.TotalPCG < stats.TotalNewton {
		t.Fatalf("stats implausible: %+v", stats)
	}
}

func TestPlasticFractionMonotoneGrowth(t *testing.T) {
	stats := crush(t).stats
	// Figure 13 left: the plastic fraction grows over the load schedule
	// (monotone up to small unload effects; require non-decreasing within
	// a tolerance).
	prev := -1.0
	for i, ss := range stats.Steps {
		if ss.PlasticFrac < prev-0.05 {
			t.Fatalf("plastic fraction dropped at step %d: %v -> %v", i, prev, ss.PlasticFrac)
		}
		if ss.PlasticFrac > prev {
			prev = ss.PlasticFrac
		}
	}
	if prev <= 0 {
		t.Fatal("never yielded")
	}
}

func TestDynamicToleranceBounds(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.RTol1 != 1e-4 || cfg.RTolMax != 1e-3 || cfg.RTolFactor != 1e-1 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
	if cfg.Steps != 10 || cfg.EnergyTol != 1e-20 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
}

func TestLinearProblemConvergesInOneIteration(t *testing.T) {
	// With a linear material the Newton loop must converge essentially
	// immediately (second iteration residual at linear-solver tolerance).
	c := problems.NewCube(3, material.LinearElastic{E: 1, Nu: 0.3}, 0)
	// Displacement-driven: push the top down.
	for v, pt := range c.Mesh.Coords {
		if pt.Z == 1 {
			c.Cons.FixDof(3*v+2, -0.05)
		}
	}
	p := fem.NewProblem(c.Mesh, c.Models, false)
	h, err := core.Coarsen(c.Mesh, core.Options{MinCoarse: 20})
	if err != nil {
		t.Fatal(err)
	}
	zero := fem.NewConstraints()
	for d := range c.Cons.Fixed {
		zero.FixDof(d, 0)
	}
	dm := zero.NewDofMap(c.Mesh.NumDOF())
	factory := mgFactory(h, dm)
	_, stats, err := Solve(p, c.Cons, Config{Steps: 1, MaxNewton: 10, EnergyTol: 1e-12}, factory, -1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps[0].NewtonIters > 3 {
		t.Fatalf("linear problem took %d Newton its", stats.Steps[0].NewtonIters)
	}
}

func TestDynamicToleranceSchedule(t *testing.T) {
	// The paper's heuristic: rtol_1 = 1e-4; rtol_m = min(1e-3,
	// 1e-1·‖r_m‖/‖r_{m-1}‖). The first tolerance of every step must be
	// 1e-4 and later ones capped at 1e-3.
	stats := crush(t).stats
	for si, ss := range stats.Steps {
		if len(ss.RTols) != ss.NewtonIters {
			t.Fatalf("step %d: %d rtols for %d iterations", si, len(ss.RTols), ss.NewtonIters)
		}
		if ss.RTols[0] != 1e-4 {
			t.Fatalf("step %d: first rtol = %v", si, ss.RTols[0])
		}
		for m, r := range ss.RTols[1:] {
			if r > 1e-3 || r <= 0 {
				t.Fatalf("step %d iter %d: rtol = %v", si, m+2, r)
			}
		}
	}
}

// poisonOnce is the identity preconditioner, except that its at-th
// application returns a NaN (at = 0: never).
type poisonOnce struct{ calls, at int }

func (p *poisonOnce) Apply(r, z []float64) {
	copy(z, r)
	if p.calls++; p.calls == p.at {
		z[0] = math.NaN()
	}
}

// TestNonFiniteLinearSolveStopsNewton: an inner solve that stops on NaN
// before MaxPCG must end the Newton solve with the reason, not have its du
// added to u; running out of iterations names its reason too.
func TestNonFiniteLinearSolveStopsNewton(t *testing.T) {
	c := problems.NewCube(2, material.LinearElastic{E: 1, Nu: 0.3}, 0)
	for v, pt := range c.Mesh.Coords {
		if pt.Z == 1 {
			c.Cons.FixDof(3*v+2, -0.05)
		}
	}
	solve := func(at, maxPCG int) error {
		p := fem.NewProblem(c.Mesh, c.Models, false)
		factory := func(sparse.Operator) (krylov.Preconditioner, error) {
			return &poisonOnce{at: at}, nil
		}
		_, _, err := Solve(p, c.Cons, Config{Steps: 1, MaxNewton: 4, MaxPCG: maxPCG}, factory, -1)
		return err
	}
	for _, tc := range []struct {
		name       string
		at, maxPCG int
		want       []string
	}{
		{"poisoned", 3, 500, []string{"step 1 iter 1", "non_finite"}},
		{"bound", 0, 2, []string{"step 1 iter 1", "iteration bound", "max_iters"}},
	} {
		err := solve(tc.at, tc.maxPCG)
		if err == nil {
			t.Fatalf("%s: Solve returned no error", tc.name)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not contain %q", tc.name, err, w)
			}
		}
	}
}
