package prometheus

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"prometheus/internal/krylov"
	"prometheus/internal/material"
	"prometheus/internal/multigrid"
	"prometheus/internal/newton"
	"prometheus/internal/obs"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

// mgOutcome is everything a hierarchy computes, as bits: per level the
// storage, the operator's values and one application of the smoother (of
// the coarse factor on the coarsest level), then an FPCG solve's residual
// history.
type mgOutcome struct {
	storage   []string
	levels    [][]uint64
	residuals []uint64
}

func outcomeOf(t *testing.T, mg *multigrid.MG, fine Operator) mgOutcome {
	t.Helper()
	o := levelsOf(mg)
	b := make([]float64, fine.Rows())
	for i := range b {
		b[i] = math.Cos(float64(i))
	}
	res := krylov.FPCG(fine, b, make([]float64, fine.Rows()), mg, 1e-8, 500)
	if !res.Converged {
		t.Errorf("FPCG did not converge in %d iterations", res.Iterations)
	}
	o.residuals = floatBits(res.Residuals)
	return o
}

// levelsOf is outcomeOf without the solve: every level's storage and
// values, and one smoother application or coarse solve on it.
func levelsOf(mg *multigrid.MG) mgOutcome {
	var o mgOutcome
	for _, lvl := range mg.Levels {
		r, z := make([]float64, lvl.A.Rows()), make([]float64, lvl.A.Rows())
		for i := range r {
			r[i] = math.Sin(float64(i))
		}
		if lvl.Direct != nil {
			lvl.Direct.Solve(r, z)
		} else {
			lvl.Smoother.Apply(r, z)
		}
		o.storage = append(o.storage, fmt.Sprintf("%T", lvl.A))
		o.levels = append(o.levels, floatBits(sparse.Values(lvl.A)), floatBits(z))
	}
	return o
}

func (o mgOutcome) diff(p mgOutcome) string {
	switch {
	case !slices.Equal(o.storage, p.storage):
		return fmt.Sprintf("level storage %v against %v", o.storage, p.storage)
	case !slices.EqualFunc(o.levels, p.levels, slices.Equal[[]uint64]):
		return "a level's values, smoother or coarse factor differ"
	case !slices.Equal(o.residuals, p.residuals):
		return "FPCG residual histories differ"
	}
	return ""
}

// withoutPlan returns a Solver with s's mesh setup and restrictions and no
// plan: its Preconditioner plans from scratch.
func withoutPlan(s *Solver) *Solver {
	return &Solver{Mesh: s.Mesh, Hier: s.Hier, Opts: s.Opts, cons: s.cons, dofMap: s.dofMap, rs: s.rs}
}

// TestNewtonFillsOnePlan runs the spheres_newton workload's Newton solve
// (the benchmark's seed-1 crush): its twelve tangents share one pattern,
// so the Solver plans once and fills twelve times, and every fill is bit
// for bit the hierarchy a Solver without a plan builds for that tangent:
// the same level values, smoother and coarse factors, and the same output
// for every residual the Newton solve's own Krylov iterations hand it
// (twinPreconditioner), so the solve that exercises the plan is the one
// that checks it.
func TestNewtonFillsOnePlan(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve Newton tangents, each built twice")
	}
	obs.Enable()
	defer obs.Disable()
	sp := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2})
	sp.Models[material.MatHard] = material.J2Plasticity{E: 1, Nu: 0.3, SigmaY: problems.ScaledYieldStress(sp.Config), H: 0.002}
	cons := sp.Cons.Scaled(0.5 * (0.999 + 0.002*rand.New(rand.NewSource(1)).Float64()))
	solver, err := NewSolver(sp.Mesh, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Snapshot()
	var twins []*twinPreconditioner
	factory := func(k sparse.Operator) (krylov.Preconditioner, error) {
		mg, err := solver.Preconditioner(k)
		if err != nil {
			return nil, err
		}
		fresh, err := withoutPlan(solver).Preconditioner(k)
		if err != nil {
			return nil, err
		}
		if d := levelsOf(mg).diff(levelsOf(fresh)); d != "" {
			t.Fatalf("tangent %d: filled from the plan against a new plan: %s", len(twins)+1, d)
		}
		tw := &twinPreconditioner{t: t, tangent: len(twins) + 1, mg: mg, fresh: fresh}
		twins = append(twins, tw)
		return tw, nil
	}
	_, stats, err := newton.Solve(NewProblem(sp.Mesh, sp.Models, true), cons, newton.Config{Steps: 2, MaxNewton: 30}, factory, sp.HardMat)
	if err != nil {
		t.Fatal(err)
	}
	if len(twins) != 12 || stats.TotalNewton != 12 {
		t.Fatalf("%d tangents in %d Newton iterations, want 12", len(twins), stats.TotalNewton)
	}
	for _, tw := range twins {
		if tw.applies == 0 {
			t.Fatalf("tangent %d: the Newton solve never applied its preconditioner", tw.tangent)
		}
	}
	after := obs.Snapshot()
	built := after.Counter("multigrid.plan.built") - before.Counter("multigrid.plan.built")
	reused := after.Counter("multigrid.plan.reused") - before.Counter("multigrid.plan.reused")
	// Every plan-less Solver plans once more.
	if built != 1+int64(len(twins)) || reused != int64(len(twins))-1 {
		t.Fatalf("%d plans built and %d reused, want 1 + %d and %d", built, reused, len(twins), len(twins)-1)
	}
}

// twinPreconditioner applies a hierarchy filled from a plan and the one a
// Solver without a plan built for the same tangent to every residual, and
// fails the test unless the two give the same bits; the solve goes on with
// the planned one's.
type twinPreconditioner struct {
	t         *testing.T
	tangent   int
	mg, fresh *multigrid.MG
	z         []float64
	applies   int
}

// Apply implements krylov.Preconditioner.
func (w *twinPreconditioner) Apply(r, z []float64) {
	w.mg.Apply(r, z)
	if len(w.z) != len(z) {
		w.z = make([]float64, len(z))
	}
	w.fresh.Apply(r, w.z)
	w.applies++
	for i := range z {
		if math.Float64bits(z[i]) != math.Float64bits(w.z[i]) {
			w.t.Fatalf("tangent %d, application %d: z[%d] = %v filled from the plan, %v from a new plan", w.tangent, w.applies, i, z[i], w.z[i])
		}
	}
}

// planCase is a Solver and two reduced operators of one pattern: the
// linear tangent and a Neo-Hookean one under a displacement.
type planCase struct {
	solver *Solver
	k1, k2 *CSR
}

func newPlanCase(t *testing.T, h HierarchyKind) planCase {
	t.Helper()
	m, cons, f := buildCube(t, 5)
	solver, err := NewSolver(m, cons, Options{Hierarchy: h})
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, m.NumDOF())
	for v, pt := range m.Coords {
		u[3*v+2] = -0.05 * pt.Z * pt.Z
		u[3*v] = 0.01 * pt.Y * pt.Z
	}
	var ks [2]*CSR
	for i, p := range []*Problem{
		NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false),
		NewProblem(m, []Model{NeoHookean{E: 1, Nu: 0.45}}, true),
	} {
		k, _, err := p.AssembleTangent(u)
		if err != nil {
			t.Fatal(err)
		}
		ks[i], _ = solver.ReduceSystem(k, f)
	}
	return planCase{solver: solver, k1: ks[0], k2: ks[1]}
}

// hierarchies are the two kinds of restriction chain.
var hierarchies = []struct {
	name string
	h    HierarchyKind
}{{"geometric", GeometricMIS}, {"aggregation", SmoothedAggregation}}

// TestPreconditionerFillsOnRepeatedPattern: a second operator of the first
// one's pattern, with other values, is filled into the Solver's plan, bit
// for bit what a Solver without the plan builds — on the geometric
// hierarchy (blocked fine level) and on smoothed aggregation.
func TestPreconditionerFillsOnRepeatedPattern(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, hk := range hierarchies {
		t.Run(hk.name, func(t *testing.T) {
			c := newPlanCase(t, hk.h)
			if _, err := c.solver.Preconditioner(c.k1); err != nil {
				t.Fatal(err)
			}
			reused := obs.Snapshot().Counter("multigrid.plan.reused")
			mg, err := c.solver.Preconditioner(c.k2)
			if err != nil {
				t.Fatal(err)
			}
			if obs.Snapshot().Counter("multigrid.plan.reused") != reused+1 {
				t.Fatal("the second operator of one pattern did not reuse the plan")
			}
			fresh, err := withoutPlan(c.solver).Preconditioner(c.k2)
			if err != nil {
				t.Fatal(err)
			}
			if d := outcomeOf(t, mg, c.k2).diff(outcomeOf(t, fresh, c.k2)); d != "" {
				t.Fatalf("filled from the plan against a new plan: %s", d)
			}
		})
	}
}

// TestConcurrentPreconditioner: goroutines building preconditioners from one
// Solver at once — the first ones race to make the restriction chain
// (smoothed aggregation) and the plan, the later ones fill it — each get a
// hierarchy of their own, bit for bit the one a Solver alone builds, which
// they then apply at the same time. Run under -race this is the test that
// the chain and the plan are published safely and that filled hierarchies
// share nothing they write.
func TestConcurrentPreconditioner(t *testing.T) {
	for _, hk := range hierarchies {
		t.Run(hk.name, func(t *testing.T) {
			c := newPlanCase(t, hk.h)
			alone := newPlanCase(t, hk.h).solver
			if _, err := alone.Preconditioner(c.k1); err != nil {
				t.Fatal(err)
			}
			ref, err := alone.Preconditioner(c.k2)
			if err != nil {
				t.Fatal(err)
			}
			want := outcomeOf(t, ref, c.k2)
			const n = 4
			for round, k := range []*CSR{c.k1, c.k2} {
				mgs := make([]*multigrid.MG, n)
				errs := make([]error, n)
				var wg sync.WaitGroup
				for i := range mgs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						mgs[i], errs[i] = c.solver.Preconditioner(k)
					}()
				}
				wg.Wait()
				if round == 0 {
					continue
				}
				got := make([]mgOutcome, n)
				for i := range mgs {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i] = outcomeOf(t, mgs[i], k)
					}()
				}
				wg.Wait()
				for i := range got {
					if d := got[i].diff(want); d != "" {
						t.Fatalf("concurrent build %d against a Solver alone: %s", i, d)
					}
				}
			}
		})
	}
}
