package prometheus

import (
	"slices"
	"testing"

	"prometheus/internal/problems"
)

// TestKeptGrids pins the fold rule on vertex counts alone: a grid is
// folded when it keeps more than 7/10 of the last grid kept above it —
// not of its parent, which may itself be folded — and the coarsest grid
// is always kept.
func TestKeptGrids(t *testing.T) {
	for _, c := range []struct {
		name   string
		counts []int
		want   []int
	}{
		{"no coarsening", []int{100}, []int{0}},
		{"coarsening throughout", []int{1000, 400, 100, 30}, []int{0, 1, 2, 3}},
		{"exactly 7/10 is kept", []int{1000, 700, 100}, []int{0, 1, 2}},
		{"the Newton hierarchy", []int{1000, 371, 317, 55}, []int{0, 1, 3}},
		// 650 is 0.81 of its folded parent but 0.65 of grid 0.
		{"back to back, against the last kept", []int{1000, 800, 650, 100}, []int{0, 2, 3}},
		{"back to back, both folded", []int{1000, 900, 800, 100}, []int{0, 3}},
		{"two grids above 7/10", []int{100, 90}, []int{0, 1}},
		{"a stalled coarsest grid", []int{1000, 300, 280}, []int{0, 1, 2}},
	} {
		if got := keptGrids(c.counts); !slices.Equal(got, c.want) {
			t.Errorf("%s: keptGrids(%v) = %v, want %v", c.name, c.counts, got, c.want)
		}
	}
}

// TestFoldStalledGrid: the spheres_newton hierarchy's grid 2 keeps 0.854
// of grid 1. The solver visits three levels, the second restriction is
// core's R₃·R₂ bit for bit, and the coarsening record still lists all four
// grids.
func TestFoldStalledGrid(t *testing.T) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2})
	solver, err := NewSolver(s.Mesh, s.Cons.Homogeneous(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if counts, _ := solver.VertexReduction(); len(counts) != 4 {
		t.Fatalf("coarsening record %v, want 4 grids", counts)
	}
	if n := solver.NumLevels(); n != 3 {
		t.Fatalf("%d levels, want 3", n)
	}
	for l, want := range []int{0, 1, 3} {
		if g := solver.LevelGrid(l); g != want {
			t.Fatalf("level %d is grid %d, want %d", l, g, want)
		}
	}
	h := solver.Hier
	want := h.Grids[3].R.Mul(h.Grids[2].R)
	got := solver.rs[1]
	if got.NRows != want.NRows || got.NCols != want.NCols ||
		!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) ||
		!slices.Equal(floatBits(got.Val), floatBits(want.Val)) {
		t.Fatal("second restriction is not R₃·R₂ bit for bit")
	}

	p := NewProblem(s.Mesh, s.Models, true)
	k, _, err := p.AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, s.Mesh.NumDOF())
	f[len(f)-1] = -1
	_, res, err := solver.SolveLinear(k, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 3 {
		t.Fatalf("the solve visited %d levels, want 3", res.Levels)
	}
}

// TestNoFoldWhereEveryGridCoarsens: no grid of the benchmark's other
// library hierarchies keeps more than 0.59 of its parent's vertices
// (spheres_linear's worst), so the solver visits every grid core built.
func TestNoFoldWhereEveryGridCoarsens(t *testing.T) {
	spheres := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4})
	cube := problems.NewCube(24, LinearElastic{E: 1, Nu: 0.3}, -0.001)
	for _, c := range []struct {
		name string
		m    *Mesh
		cons *Constraints
	}{
		{"spheres_linear", spheres.Mesh, spheres.Cons},
		{"NewCube(24)", cube.Mesh, cube.Cons},
	} {
		solver, err := NewSolver(c.m, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		counts, _ := solver.VertexReduction()
		if solver.NumLevels() != len(counts) {
			t.Errorf("%s: %d levels from grids %v, want every grid", c.name, solver.NumLevels(), counts)
		}
	}
}
