package prometheus

import (
	"fmt"
	"slices"
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/la"
	"prometheus/internal/multigrid"
	"prometheus/internal/problems"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

// The two library systems of BENCHMARK.json: the spheres model problem
// (component-wise constraints, so a scalar CSR fine level) and the
// clamped cube (node-aligned constraints, so 3x3 BSR), at the benchmark's
// sizes (20.6k and 46.9k dofs) when full is set and the same two shapes a
// size down otherwise.
type reducedSystem struct {
	solver *Solver
	kred   *CSR // reduced tangent
}

func spheresSystem(t testing.TB, full bool, mgOpts multigrid.Options) reducedSystem {
	t.Helper()
	cfg := problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}
	if full {
		cfg = problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4}
	}
	s := problems.NewSpheresConfig(cfg)
	u0 := make([]float64, s.Mesh.NumDOF())
	s.Cons.Scaled(0.1).Apply(u0)
	return reduce(t, s.Mesh, s.Cons, NewProblem(s.Mesh, s.Models, true), u0, mgOpts)
}

func cubeSystem(t testing.TB, full bool, mgOpts multigrid.Options) reducedSystem {
	t.Helper()
	n := 8
	if full {
		n = 24
	}
	c := problems.NewCube(n, LinearElastic{E: 1, Nu: 0.3}, -0.001)
	return reduce(t, c.Mesh, c.Cons, NewProblem(c.Mesh, c.Models, false), make([]float64, c.Mesh.NumDOF()), mgOpts)
}

func reduce(t testing.TB, m *Mesh, cons *Constraints, p *Problem, u0 []float64, mgOpts multigrid.Options) reducedSystem {
	t.Helper()
	solver, err := NewSolver(m, cons, Options{MG: mgOpts})
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := p.AssembleTangent(u0)
	if err != nil {
		t.Fatal(err)
	}
	kred, _ := solver.ReduceSystem(k, make([]float64, m.NumDOF()))
	return reducedSystem{solver, kred}
}

func (s reducedSystem) hierarchy(t testing.TB) *multigrid.MG {
	t.Helper()
	mg, err := s.solver.Preconditioner(s.kred)
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

// edgeListGraph is the construction the pattern graph replaced: the
// strict-upper-triangle edge list of the matrix through NewGraph.
func edgeListGraph(a *sparse.CSR) *graph.Graph {
	var edges [][2]int
	for i := 0; i < a.NRows; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if i < j {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graph.NewGraph(a.NRows, edges)
}

// TestSmootherPartitionMatchesEdgeListGraph proves the smoother blocks are
// the ones the edge-list path produced: on every level operator of both
// benchmark hierarchies (a size down under -short) the pattern graph equals
// the edge-list graph array for array, and the partitioner returns the same
// block of every dof. The spheres hierarchy is built with StorageCSR, so that
// every level holds the scalar matrix the smoother setup reads (under
// StorageAuto its Galerkin levels are applied as BSR, whose scalar view has
// the block fill in it).
func TestSmootherPartitionMatchesEdgeListGraph(t *testing.T) {
	full := !testing.Short()
	for _, tc := range []struct {
		name string
		mg   *multigrid.MG
		fine string
	}{
		{"spheres", spheresSystem(t, full, multigrid.Options{Storage: multigrid.StorageCSR}).hierarchy(t), "*sparse.CSR"},
		{"cube", cubeSystem(t, full, multigrid.Options{}).hierarchy(t), "*sparse.BSR"},
	} {
		if got := fmt.Sprintf("%T", tc.mg.Levels[0].A); got != tc.fine {
			t.Fatalf("%s: fine level is %s, want %s", tc.name, got, tc.fine)
		}
		for li, lvl := range tc.mg.Levels {
			view := sparse.AsCSR(lvl.A)
			want := edgeListGraph(view)
			got := graph.NewFromPattern(view.NRows, view.RowPtr, view.ColIdx)
			if got.N != want.N || !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Adj, want.Adj) {
				t.Fatalf("%s level %d (%d dofs): pattern graph differs from the edge-list graph", tc.name, li, view.NRows)
			}
			nb := smooth.DefaultBlockCount(view.NRows)
			if !slices.Equal(graph.GreedyPartition(got, nb), graph.GreedyPartition(want, nb)) {
				t.Fatalf("%s level %d: partitions differ", tc.name, li)
			}
		}
	}
}

// TestBlockGatherMatchesAt checks the packed block gather entry by entry
// against the level operator's own At on both assembled storages, reading
// each level's own storage (BSR levels through their blocks): the first
// and last smoother block of every level through one position array for
// the whole partition (the form concurrent block setup shares), then the
// first block again in reversed dof order.
func TestBlockGatherMatchesAt(t *testing.T) {
	type gatherer interface {
		GatherLowerPacked(idx, pos []int, l []float64)
	}
	seen := map[string]bool{}
	for _, mg := range []*multigrid.MG{spheresSystem(t, false, multigrid.Options{}).hierarchy(t), cubeSystem(t, false, multigrid.Options{}).hierarchy(t)} {
		for li, lvl := range mg.Levels {
			seen[fmt.Sprintf("%T", lvl.A)] = true
			at := lvl.A.(sparse.RowScanner)
			e := sparse.EntriesOf(lvl.A)
			nb := smooth.DefaultBlockCount(e.NRows)
			g := graph.NewFromPattern(e.NRows, e.RowPtr, e.ColIdx)
			blocks := graph.PartMembers(graph.GreedyPartition(g, nb), nb)
			// pos[d] is d's position inside its own block, as the
			// smoother's setup builds it: every other block's entries
			// are the garbage the gather must see through.
			pos := make([]int, e.NRows)
			for _, dofs := range blocks {
				for k, d := range dofs {
					pos[d] = k
				}
			}
			first := blocks[0]
			reversed := make([]int, len(first))
			revPos := slices.Clone(pos)
			for k, d := range first {
				reversed[len(first)-1-k] = d
				revPos[d] = len(first) - 1 - k
			}
			for _, c := range []struct{ dofs, pos []int }{{first, pos}, {blocks[nb-1], pos}, {reversed, revPos}} {
				dofs := c.dofs
				l := make([]float64, la.PackedLen(len(dofs)))
				for i := range l {
					l[i] = -7 // the gather must overwrite every slot
				}
				before := slices.Clone(c.pos)
				lvl.A.(gatherer).GatherLowerPacked(dofs, c.pos, l)
				for p, i := range dofs {
					for q, j := range dofs[:p+1] {
						if got, want := l[la.PackedLen(p)+q], at.At(i, j); got != want {
							t.Fatalf("level %d (%T): gathered (%d,%d) = %v, At(%d,%d) = %v", li, lvl.A, p, q, got, i, j, want)
						}
					}
				}
				if !slices.Equal(before, c.pos) {
					t.Fatalf("level %d: the gather wrote its position array", li)
				}
			}
		}
	}
	for _, st := range []string{"*sparse.CSR", "*sparse.BSR"} {
		if !seen[st] {
			t.Errorf("no %s level was exercised", st)
		}
	}
}

// domainBlockJacobi runs the three setup steps multigrid performs per
// level: graph from the pattern, partition, gather and factor.
func domainBlockJacobi(b *testing.B, a *sparse.CSR) *smooth.DomainBlockJacobi {
	nb := smooth.DefaultBlockCount(a.NRows)
	part := graph.GreedyPartition(graph.NewFromPattern(a.NRows, a.RowPtr, a.ColIdx), nb)
	bj, err := smooth.NewDomainBlockJacobi(a, a, part, nb)
	if err != nil {
		b.Fatal(err)
	}
	return bj
}

// BenchmarkBlockJacobiSetup measures the domain smoother's setup on the
// 20.6k-dof spheres fine operator: 123 blocks of ~167 dofs partitioned,
// gathered and factored. -benchmem shows what it allocates: the packed
// factors (~14 MB) plus the graph and index arrays.
func BenchmarkBlockJacobiSetup(b *testing.B) {
	a := spheresSystem(b, true, multigrid.Options{}).kred
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		domainBlockJacobi(b, a)
	}
}

// BenchmarkBlockSolve measures one application of the factored blocks
// (forward and back substitution through every packed factor) on the same
// operator; it must not allocate.
func BenchmarkBlockSolve(b *testing.B) {
	a := spheresSystem(b, true, multigrid.Options{}).kred
	bj := domainBlockJacobi(b, a)
	r := make([]float64, a.NRows)
	z := make([]float64, a.NRows)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bj.Apply(r, z)
	}
	b.ReportMetric(float64(bj.Flops())/b.Elapsed().Seconds()/1e6, "Mflop/s")
}
