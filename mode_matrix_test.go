package prometheus

import (
	"fmt"
	"testing"

	"prometheus/internal/krylov"
	"prometheus/internal/multigrid"
	"prometheus/internal/problems"
)

// TestModeMatrix solves one small clamped cube in every library
// configuration: cycle {fmg, v} × hierarchy {geometric MIS, smoothed
// aggregation}, 4 cells, each hierarchy four levels deep. The constraints
// are node-aligned, so under both hierarchies the reduced operator blocks
// with no fill and the fine level is applied in blocks. Every cell must
// take the iterations its row records. That blocking is a kernel choice,
// not arithmetic — the blocked hierarchy solves bit for bit as the
// scalar-kernel reference under every cycle — is TestStorageParity (geometric)
// and TestAggregationBlockingIsAKernelChoice in internal/multigrid.
func TestModeMatrix(t *testing.T) {
	c := problems.NewCube(7, LinearElastic{E: 1, Nu: 0.3}, -0.001)
	k, _, err := NewProblem(c.Mesh, c.Models, false).AssembleTangent(make([]float64, c.Mesh.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	// One solver per hierarchy builds the restriction chain, which does not
	// depend on the multigrid options; every cell's solver shares it.
	solvers := map[HierarchyKind]*Solver{}
	var kred *CSR
	var fred []float64
	for _, h := range []HierarchyKind{GeometricMIS, SmoothedAggregation} {
		s, err := NewSolver(c.Mesh, c.Cons, Options{Hierarchy: h, Coarsen: CoarsenOptions{MinCoarse: 10}})
		if err != nil {
			t.Fatal(err)
		}
		kred, fred = s.ReduceSystem(k, c.Load)
		if _, err := s.Preconditioner(kred); err != nil {
			t.Fatal(err)
		}
		solvers[h] = s
	}
	for _, row := range []struct {
		hierarchy  HierarchyKind
		cycle      multigrid.CycleKind
		iterations int
	}{
		{GeometricMIS, FMG, 5},
		{GeometricMIS, VCycle, 6},
		{SmoothedAggregation, FMG, 5},
		{SmoothedAggregation, VCycle, 6},
	} {
		cell := fmt.Sprintf("hierarchy %d, cycle %d", row.hierarchy, row.cycle)
		solver := withoutPlan(solvers[row.hierarchy])
		solver.Opts.MG = MGOptions{Cycle: row.cycle}
		mg, err := solver.Preconditioner(kred)
		if err != nil {
			t.Fatal(err)
		}
		if mg.NumLevels() != 4 {
			t.Fatalf("%s: %d levels, want 4", cell, mg.NumLevels())
		}
		if _, blocked := mg.Levels[0].A.(*BSR); !blocked {
			t.Errorf("%s: the fine level is %T", cell, mg.Levels[0].A)
		}
		x := make([]float64, kred.NRows)
		res := krylov.FPCG(kred, fred, x, mg, solver.Opts.RTol, solver.Opts.MaxIters)
		if !res.Converged || res.Iterations != row.iterations {
			t.Errorf("%s: converged=%v in %d iterations, want %d", cell, res.Converged, res.Iterations, row.iterations)
		}
	}
}
