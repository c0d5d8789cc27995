package multigrid

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"prometheus/internal/core"
	"prometheus/internal/graph"
	"prometheus/internal/krylov"
	"prometheus/internal/problems"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

// hierarchyBits is everything a hierarchy computes, as bits: per level the
// storage, the operator's values, one smoother application and, on the
// coarsest level, one direct solve; then an FPCG solve's residual history
// and solution.
type hierarchyBits struct {
	storage             []string
	values, apply       [][]uint64
	coarse              []uint64
	residuals, solution []uint64
}

func bitsOfHierarchy(t *testing.T, mg *MG, fine sparse.Operator, f []float64) hierarchyBits {
	t.Helper()
	var h hierarchyBits
	for _, lvl := range mg.Levels {
		h.storage = append(h.storage, fmt.Sprintf("%T", lvl.A))
		h.values = append(h.values, bitsOf(sparse.Values(lvl.A)))
		r, z := make([]float64, lvl.A.Rows()), make([]float64, lvl.A.Rows())
		for i := range r {
			r[i] = math.Sin(float64(i))
		}
		if lvl.Direct != nil {
			lvl.Direct.Solve(r, z)
			h.coarse = bitsOf(z)
			continue
		}
		lvl.Smoother.Apply(r, z)
		h.apply = append(h.apply, bitsOf(z))
	}
	x := make([]float64, fine.Rows())
	res := krylov.FPCG(fine, f, x, mg, 1e-8, 400)
	if !res.Converged {
		t.Fatalf("FPCG did not converge in %d iterations", res.Iterations)
	}
	h.residuals, h.solution = bitsOf(res.Residuals), bitsOf(x)
	return h
}

// diffHierarchy names the first thing two hierarchies compute differently.
func diffHierarchy(a, b hierarchyBits) string {
	switch {
	case !slices.Equal(a.storage, b.storage):
		return fmt.Sprintf("level storage %v against %v", a.storage, b.storage)
	case !slices.EqualFunc(a.values, b.values, slices.Equal[[]uint64]):
		return "level values differ"
	case !slices.EqualFunc(a.apply, b.apply, slices.Equal[[]uint64]):
		return "a smoother applies differently"
	case !slices.Equal(a.coarse, b.coarse):
		return "the coarse factor solves differently"
	case !slices.Equal(a.residuals, b.residuals):
		return fmt.Sprintf("FPCG residual histories differ (%d against %d entries)", len(a.residuals), len(b.residuals))
	case !slices.Equal(a.solution, b.solution):
		return "FPCG solutions differ"
	}
	return ""
}

// congruent returns D·A·D for the diagonal d: an SPD matrix with A's
// pattern, in index arrays of its own.
func congruent(a *sparse.CSR, d []float64) *sparse.CSR {
	out := &sparse.CSR{NRows: a.NRows, NCols: a.NCols, RowPtr: slices.Clone(a.RowPtr), ColIdx: slices.Clone(a.ColIdx), Val: make([]float64, len(a.Val))}
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			out.Val[k] = d[i] * a.Val[k] * d[a.ColIdx[k]]
		}
	}
	return out
}

// wobble is a diagonal of scales near one.
func wobble(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 + 0.2*math.Sin(0.7*float64(i))
	}
	return d
}

// TestPlanFillIsFreshBuild: a hierarchy filled from the plan of an
// operator with the same pattern computes what a new plan gives, bit for
// bit, on a blocked and a scalar fine level, with pinned levels reached
// through the scalar and the blocked product, and on the all-scalar
// reference.
func TestPlanFillIsFreshBuild(t *testing.T) {
	sk, sf, srs := buildSpheres(t)
	ck, cf, crs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	nodeRS := append([]*sparse.CSR{zeroNodeRestriction(crs[0])}, crs[1:]...)
	for _, tc := range []struct {
		name   string
		a      *sparse.CSR
		f      []float64
		rs     []*sparse.CSR
		scalar bool
	}{
		{"spheres, CSR fine", sk, sf, srs, false},
		{"cube, BSR fine", ck, cf, crs, false},
		{"cube with a pinned node, BSR fine", ck, cf, nodeRS, false},
		{"cube, CSR everywhere", ck, cf, crs, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build, fresh := Build, New
			if tc.scalar {
				build, fresh = scalarBuild, newScalar
			}
			_, plan, err := build(nil, tc.a, tc.rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			a2 := congruent(tc.a, wobble(tc.a.NRows))
			mg, again, err := Build(plan, a2, tc.rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if again != plan {
				t.Fatal("the second build made a new plan")
			}
			want, err := fresh(a2, tc.rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffHierarchy(bitsOfHierarchy(t, mg, a2, tc.f), bitsOfHierarchy(t, want, a2, tc.f)); d != "" {
				t.Fatalf("filled from a reused plan against a new plan: %s", d)
			}
		})
	}
}

// TestPlanReplansWhenPinsMove: a coarse dof whose fine support the values
// make negligible is pinned, which the plan of the first operator did not
// do; the fill finds another pin list, gives the plan up, and the build is
// the one a new plan gives.
func TestPlanReplansWhenPinsMove(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	_, plan, err := Build(nil, k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.levels[1].pins != nil {
		t.Fatal("the fixture's first level is meant to pin nothing")
	}
	d := make([]float64, k.NRows)
	for i := range d {
		d[i] = 1
	}
	r := rs[0]
	for _, j := range r.ColIdx[r.RowPtr[0]:r.RowPtr[1]] {
		d[j] = 1e-8
	}
	a2 := congruent(k, d)
	mg, again, err := Build(plan, a2, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again == plan {
		t.Fatal("a fill whose pins moved kept its plan")
	}
	if again.levels[1].pins == nil || again.levels[1].pins[0] >= 0 {
		t.Fatalf("coarse dof 0 is not pinned: %v", again.levels[1].pins)
	}
	fresh, err := New(a2, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffHierarchy(bitsOfHierarchy(t, mg, a2, f), bitsOfHierarchy(t, fresh, a2, f)); diff != "" {
		t.Fatalf("re-planned against a new plan: %s", diff)
	}
}

// TestPlanReplansOnNewPattern: an operator with one more stored entry
// (a pair of explicit zeros), another storage or a shorter restriction
// chain does not match the plan — on a fine level used as handed in, and
// on one blocked with no fill, whose plan compares against its blocks.
func TestPlanReplansOnNewPattern(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	// Row 0 and the first column it does not store, both ways.
	j := 0
	for _, c := range k.ColIdx[k.RowPtr[0]:k.RowPtr[1]] {
		if c != j {
			break
		}
		j++
	}
	b := sparse.NewBuilder(k.NRows, k.NCols)
	for i := 0; i < k.NRows; i++ {
		cols, vals := k.Row(i)
		for n, c := range cols {
			b.Add(i, c, vals[n])
		}
	}
	b.Add(0, j, 0)
	b.Add(j, 0, 0)
	a2 := b.Build()
	if a2.NNZ() != k.NNZ()+2 {
		t.Fatalf("the fixture stores %d entries, want %d", a2.NNZ(), k.NNZ()+2)
	}
	for _, scalar := range []bool{false, true} {
		name, build := "blocked with no fill", Build
		if scalar {
			name, build = "as handed in", scalarBuild
		}
		_, plan, err := build(nil, k, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.expanded == scalar {
			t.Fatalf("%s: the plan keeps the fine pattern expanded=%v", name, plan.expanded)
		}
		if !plan.matches(congruent(k, wobble(k.NRows)), rs, plan.opts) {
			t.Fatalf("%s: the plan does not match its own pattern in other arrays", name)
		}
		mg, again, err := Build(plan, a2, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again == plan {
			t.Fatalf("%s: an operator with another pattern reused the plan", name)
		}
		fresh, err := New(a2, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffHierarchy(bitsOfHierarchy(t, mg, a2, f), bitsOfHierarchy(t, fresh, a2, f)); diff != "" {
			t.Fatalf("%s: re-planned against a new plan: %s", name, diff)
		}
		if plan.matches(sparse.AutoBlock(k, 3), rs, plan.opts) {
			t.Errorf("%s: the plan of a CSR operator matches its blocked form", name)
		}
		if plan.matches(k, rs[:1], plan.opts) {
			t.Errorf("%s: the plan matches a shorter restriction chain", name)
		}
	}
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

// TestReferencePartitionIsGraphPartition: on every smoothed level of the
// all-scalar reference hierarchies — each the matrix setup reads, pinned
// coarse levels among them (a pinned dof is a row and a column holding
// only the diagonal) — the pattern graph equals the edge-list graph array
// for array; partitioning the pattern as it stands, the pattern graph and
// the edge-list graph give the same blocks; and these are the blocks the
// level's smoother holds. The geometric spheres hierarchy is the
// benchmark's (a size down under -short).
func TestReferencePartitionIsGraphPartition(t *testing.T) {
	cfg := problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}
	if !testing.Short() {
		cfg = problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4}
	}
	ck, _, crs := buildElasticity(t, 8, core.Options{})
	sk, _, srs := buildSpheresConfig(t, cfg, false)
	ak, _, ars := buildSpheresConfig(t, problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}, true)
	pinned := 0
	for _, tc := range []struct {
		name string
		k    *sparse.CSR
		rs   []*sparse.CSR
	}{
		{"cube", ck, crs},
		{"spheres", sk, srs},
		{"aggregation", ak, ars},
	} {
		mg, err := newScalar(tc.k, tc.rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for li, lvl := range mg.Levels {
			if lvl.Smoother == nil {
				continue
			}
			a := lvl.A.(*sparse.CSR)
			for i := 0; i < a.NRows; i++ {
				if a.RowPtr[i+1]-a.RowPtr[i] == 1 && a.ColIdx[a.RowPtr[i]] == i {
					pinned++
				}
			}
			g := graph.NewFromPattern(a.NRows, a.RowPtr, a.ColIdx)
			edges := edgeListGraph(a)
			if g.N != edges.N || !slices.Equal(g.Ptr, edges.Ptr) || !slices.Equal(g.Adj, edges.Adj) {
				t.Fatalf("%s level %d (%d dofs): pattern graph differs from the edge-list graph", tc.name, li, a.NRows)
			}
			nb := smooth.DefaultBlockCount(a.NRows)
			want := graph.GreedyPartition(g, nb)
			if !slices.Equal(graph.GreedyPartition(edges, nb), want) {
				t.Fatalf("%s level %d: the partitions of the pattern graph and the edge-list graph differ", tc.name, li)
			}
			if !slices.Equal(graph.GreedyPartition(&graph.Graph{N: a.NRows, Ptr: a.RowPtr, Adj: a.ColIdx}, nb), want) {
				t.Fatalf("%s level %d: the partition of the pattern differs from the partition of its graph", tc.name, li)
			}
			if !slices.EqualFunc(graph.PartMembers(want, nb), lvl.Smoother.Inner.Blocks(), slices.Equal[[]int]) {
				t.Fatalf("%s level %d: the smoother's blocks are not the graph partition's", tc.name, li)
			}
		}
	}
	if pinned == 0 {
		t.Fatal("no level of any hierarchy pins a dof: the pinned case is not covered")
	}
}

// TestPlanFillAllocatesItsValues: a build from a reused plan allocates the
// values it fills and little else — at most twice the bytes of the
// hierarchy's values (level operators, block factors, coarse factor) —
// and the patterns the plan keeps beyond the hierarchy's own take less
// than those values.
func TestPlanFillAllocatesItsValues(t *testing.T) {
	ck, _, crs := buildElasticity(t, 6, core.Options{MinCoarse: 10})
	sk, _, srs := buildSpheres(t)
	for _, tc := range []struct {
		name string
		k    *sparse.CSR
		rs   []*sparse.CSR
	}{
		{"cube, BSR fine", ck, crs},
		{"spheres, CSR fine, levels copied into blocks", sk, srs},
	} {
		_, plan, err := Build(nil, tc.k, tc.rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		a2 := congruent(tc.k, wobble(tc.k.NRows))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mg, _, err := Build(plan, a2, tc.rs, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		values := hierarchyValueBytes(mg)
		retained := uint64(plan.PatternBytes())
		t.Logf("%s: %d bytes allocated for %d bytes of values; the plan retains %d bytes of patterns", tc.name, got, values, retained)
		if got > 2*values {
			t.Errorf("%s: a repeated-pattern build allocates %d bytes for %d bytes of values", tc.name, got, values)
		}
		if retained > values {
			t.Errorf("%s: the plan retains %d bytes of patterns beyond the hierarchy's, more than its %d bytes of values", tc.name, retained, values)
		}
	}
}

// hierarchyValueBytes is the bytes of the values a hierarchy owns: every
// level operator's, every block factor's and the coarse factor's.
func hierarchyValueBytes(mg *MG) uint64 {
	var n int
	for _, lvl := range mg.Levels {
		n += len(sparse.Values(lvl.A))
		if lvl.Direct != nil {
			n += int(lvl.Direct.SolveFlops() / 4)
		}
		if lvl.Smoother != nil {
			n += lvl.Smoother.Inner.FactorLen()
		}
	}
	return 8 * uint64(n)
}
