package prometheus

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"prometheus/internal/krylov"
	"prometheus/internal/multigrid"
	"prometheus/internal/problems"
)

// TestModeMatrix solves one small clamped cube in every library
// configuration: storage {auto, csr, bsr} × cycle {fmg, v, w} × hierarchy
// {geometric MIS, smoothed aggregation}, 18 cells, each hierarchy four
// levels deep. Storage is a kernel choice, not arithmetic, so within each
// cycle × hierarchy the three storages must agree in solution bits,
// residual history and iteration count, and every cell must take the
// iterations its row records.
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
	storages := []struct {
		name string
		kind StorageKind
	}{{"auto", StorageAuto}, {"csr", StorageCSR}, {"bsr", StorageBSR}}
	for _, row := range []struct {
		hierarchy  HierarchyKind
		cycle      multigrid.CycleKind
		iterations int
	}{
		{GeometricMIS, FMG, 5},
		{GeometricMIS, VCycle, 6},
		{GeometricMIS, WCycle, 6},
		{SmoothedAggregation, FMG, 5},
		{SmoothedAggregation, VCycle, 6},
		{SmoothedAggregation, WCycle, 6},
	} {
		var ref []uint64
		for _, st := range storages {
			cell := fmt.Sprintf("hierarchy %d, cycle %d, storage %s", row.hierarchy, row.cycle, st.name)
			solver := withoutPlan(solvers[row.hierarchy])
			solver.Opts.MG = MGOptions{Cycle: row.cycle, Storage: st.kind}
			mg, err := solver.Preconditioner(kred)
			if err != nil {
				t.Fatal(err)
			}
			if mg.NumLevels() != 4 {
				t.Fatalf("%s: %d levels, want 4", cell, mg.NumLevels())
			}
			// StorageBSR blocks the fine level, and so does StorageAuto on the
			// node-aligned fine level of a geometric hierarchy.
			_, blocked := mg.Levels[0].A.(*BSR)
			if want := st.kind == StorageBSR || st.kind == StorageAuto && row.hierarchy == GeometricMIS; blocked != want {
				t.Errorf("%s: the fine level is %T", cell, mg.Levels[0].A)
			}
			x := make([]float64, kred.NRows)
			res := krylov.FPCG(kred, fred, x, mg, solver.Opts.RTol, solver.Opts.MaxIters)
			if !res.Converged || res.Iterations != row.iterations {
				t.Errorf("%s: converged=%v in %d iterations, want %d", cell, res.Converged, res.Iterations, row.iterations)
			}
			bits := make([]uint64, 0, len(x)+len(res.Residuals))
			for _, v := range append(x, res.Residuals...) {
				bits = append(bits, math.Float64bits(v))
			}
			if ref == nil {
				ref = bits
			} else if !slices.Equal(bits, ref) {
				t.Errorf("%s: solution or residual history differs in bits from storage auto", cell)
			}
		}
	}
}
