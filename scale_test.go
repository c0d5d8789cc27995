//go:build scale

package prometheus

import (
	"testing"
	"time"

	"prometheus/internal/krylov"
	"prometheus/internal/material"
	"prometheus/internal/problems"
)

// TestIterationsAtScale pins the first-solve FPCG iteration counts of the
// paper's geometry at 41 k and 311 k dof: the tangent at a tenth of the
// crush, rtol 1e-4, as the benchmark's linear workload solves it. The
// tier-1 suite runs nothing this size, so a change that costs iterations
// only at size shows here first. It takes about 20 s on two cores and
// about 1.5 GB at its peak (the 311 k-dof hierarchy):
//
//	go test -tags scale -run TestIterationsAtScale -timeout 15m .
func TestIterationsAtScale(t *testing.T) {
	for _, c := range []struct {
		k, iters int
	}{
		// NewSpheres(1)'s grid 2 keeps 0.723 of grid 1 and is folded;
		// NewSpheres(2)'s hierarchy folds no grid.
		{1, 35},
		{2, 15},
	} {
		s := problems.NewSpheres(c.k)
		s.Models[material.MatHard] = material.J2Plasticity{
			E: 1, Nu: 0.3, SigmaY: problems.ScaledYieldStress(s.Config), H: 0.002,
		}
		u0 := make([]float64, s.Mesh.NumDOF())
		s.Cons.Scaled(0.1).Apply(u0)
		solver, err := NewSolver(s.Mesh, s.Cons, Options{RTol: 1e-4, MaxIters: 1000})
		if err != nil {
			t.Fatal(err)
		}
		k, fint, err := NewProblem(s.Mesh, s.Models, true).AssembleTangent(u0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fint {
			fint[i] = -fint[i]
		}
		kred, fred := solver.ReduceSystem(k, fint)
		mg, err := solver.Preconditioner(kred)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, kred.Rows())
		t0 := time.Now()
		res := krylov.FPCG(kred, fred, x, mg, 1e-4, 1000)
		counts, _ := solver.VertexReduction()
		t.Logf("NewSpheres(%d): %d dof, grids %v, %d levels, %d iterations, solve %v",
			c.k, s.Mesh.NumDOF(), counts, mg.NumLevels(), res.Iterations, time.Since(t0).Round(time.Millisecond))
		if !res.Converged || res.Iterations != c.iters {
			t.Errorf("NewSpheres(%d): %d iterations (converged %v), want %d", c.k, res.Iterations, res.Converged, c.iters)
		}
	}
}
