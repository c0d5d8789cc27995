package multigrid

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"prometheus/internal/aggregation"
	"prometheus/internal/core"
	"prometheus/internal/fem"
	"prometheus/internal/graph"
	"prometheus/internal/krylov"
	"prometheus/internal/material"
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
// through the scalar and the blocked product, and on the scalar-kernel
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
			build := Build
			if tc.scalar {
				build = scalarBuild
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
			want, _, err := build(nil, a2, tc.rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffHierarchy(bitsOfHierarchy(t, mg, a2, tc.f), bitsOfHierarchy(t, want, a2, tc.f)); d != "" {
				t.Fatalf("filled from a reused plan against a new plan: %s", d)
			}
		})
	}
}

// TestPlanTakesItsBlockedLevel0: the blocked level 0 of a hierarchy built
// on a CSR that blocks with no fill is, handed back in, a fine operator of
// the same plan: the build reuses the plan, keeps the matrix itself as
// level 0 and computes what the CSR's build computes, bit for bit.
func TestPlanTakesItsBlockedLevel0(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	first, plan, err := Build(nil, k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fine, ok := first.Levels[0].A.(*sparse.BSR)
	if !ok {
		t.Fatalf("level 0 of the cube is %T, want *sparse.BSR", first.Levels[0].A)
	}
	mg, again, err := Build(plan, fine, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again != plan {
		t.Fatal("the blocked level 0 made a new plan")
	}
	if mg.Levels[0].A != fine {
		t.Fatal("the hierarchy built on the blocked level 0 keeps another matrix as level 0")
	}
	if d := diffHierarchy(bitsOfHierarchy(t, mg, fine, f), bitsOfHierarchy(t, first, k, f)); d != "" {
		t.Fatalf("built on the blocked level 0 against built on the CSR: %s", d)
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
	fresh, _, err := Build(nil, a2, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffHierarchy(bitsOfHierarchy(t, mg, a2, f), bitsOfHierarchy(t, fresh, a2, f)); diff != "" {
		t.Fatalf("re-planned against a new plan: %s", diff)
	}
}

// TestPlanReplansOnNewPattern: an operator with one more stored entry
// (a pair of explicit zeros), in scalar rows or in blocks, or a shorter
// restriction chain does not match the plan — on a fine level blocked
// with no fill, whose plan compares against its blocks, and on one used
// as handed in (the cube with three single components fixed, which blocks
// only with fill). Another storage matches only the blocked plan, and only
// in the blocks it planned.
func TestPlanReplansOnNewPattern(t *testing.T) {
	ck, cf, crs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	pk, pf, prs := buildCube(t, 5, core.Options{MinCoarse: 10}, []int{0, 1, 2})
	for _, tc := range []struct {
		name     string
		k        *sparse.CSR
		f        []float64
		rs       []*sparse.CSR
		expanded bool
	}{
		{"blocked with no fill", ck, cf, crs, true},
		{"as handed in", pk, pf, prs, false},
	} {
		k, f, rs, name := tc.k, tc.f, tc.rs, tc.name
		a2 := withZeroPair(k)
		if a2.NNZ() != k.NNZ()+2 {
			t.Fatalf("%s: the fixture stores %d entries, want %d", name, a2.NNZ(), k.NNZ()+2)
		}
		_, plan, err := Build(nil, k, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.expanded != tc.expanded {
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
		fresh, _, err := Build(nil, a2, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffHierarchy(bitsOfHierarchy(t, mg, a2, f), bitsOfHierarchy(t, fresh, a2, f)); diff != "" {
			t.Fatalf("%s: re-planned against a new plan: %s", name, diff)
		}
		// A plan that blocked its CSR takes the blocked matrix as level 0
		// as it is; one that keeps the CSR does not.
		if got := plan.matches(sparse.AutoBlock(k, 3), rs, plan.opts); got != plan.expanded {
			t.Errorf("%s: the plan matches the CSR's blocked form: %v, want %v", name, got, plan.expanded)
		}
		if plan.matches(sparse.AutoBlock(a2, 3), rs, plan.opts) {
			t.Errorf("%s: the plan matches the blocked form of another pattern", name)
		}
		if plan.matches(k, rs[:1], plan.opts) {
			t.Errorf("%s: the plan matches a shorter restriction chain", name)
		}
	}
}

// withZeroPair returns k with one more pair of stored entries, explicit
// zeros: row 0 at the first column it does not store, and its mirror.
func withZeroPair(k *sparse.CSR) *sparse.CSR {
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
	return b.Build()
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

// unitPattern returns the pattern the smoother of a level stored as a is
// partitioned on, as a pattern-only CSR, and the dofs of each of its rows:
// a BSR's block pattern (rows are nodes, values zero), a CSR's own pattern
// (rows are dofs).
func unitPattern(a sparse.Operator) (*sparse.CSR, int) {
	if b, ok := a.(*sparse.BSR); ok {
		return &sparse.CSR{NRows: b.NBRows, NCols: b.NBCols, RowPtr: b.RowPtr, ColIdx: b.ColIdx, Val: make([]float64, len(b.ColIdx))}, b.B
	}
	c := a.(*sparse.CSR)
	return c, 1
}

// sameBlocks reports whether got and want hold the same dofs block for
// block, in any order within a block.
func sameBlocks(got, want [][]int) bool {
	sorted := func(b []int) []int {
		c := slices.Clone(b)
		slices.Sort(c)
		return c
	}
	return slices.EqualFunc(got, want, func(g, w []int) bool { return slices.Equal(sorted(g), sorted(w)) })
}

// expandUnits returns the blocks of dofs the blocks of units hold, unit u
// holding dofs [b·u, b·u+b).
func expandUnits(units [][]int, b int) [][]int {
	blocks := make([][]int, len(units))
	for bi, us := range units {
		for _, u := range us {
			for c := 0; c < b; c++ {
				blocks[bi] = append(blocks[bi], b*u+c)
			}
		}
	}
	return blocks
}

// TestReferencePartitionIsGraphPartition: on every smoothed level of the
// scalar-kernel reference hierarchies — each the pattern the blocked level
// stores, in scalar rows, pinned coarse levels among them (a pinned dof's
// row and column hold zeros and its diagonal) — the smoother's blocks are
// the partition of the units the blocked hierarchy stores that level in:
// its nodes where Build blocks it (the block pattern), its dofs where Build
// keeps scalar rows, each part expanded to its units' dofs. On the unit
// pattern the pattern graph equals the edge-list graph array for array,
// and partitioning the pattern as it stands, the pattern graph and the
// edge-list graph give the same parts. The geometric spheres hierarchy is
// the benchmark's (a size down under -short), with a scalar fine level and
// blocked Galerkin levels.
func TestReferencePartitionIsGraphPartition(t *testing.T) {
	cfg := problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}
	if !testing.Short() {
		cfg = problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4}
	}
	ck, _, crs := buildElasticity(t, 8, core.Options{})
	sk, _, srs := buildSpheresConfig(t, cfg, false)
	ak, _, ars := buildSpheresConfig(t, problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}, true)
	pinned := 0
	seen := map[int]bool{}
	for _, tc := range []struct {
		name string
		k    *sparse.CSR
		rs   []*sparse.CSR
	}{
		{"cube", ck, crs},
		{"spheres", sk, srs},
		{"aggregation", ak, ars},
	} {
		mg, plan, err := scalarBuild(nil, tc.k, tc.rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		blocked, _, err := Build(nil, tc.k, tc.rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for li, lvl := range mg.Levels {
			if lvl.Smoother == nil {
				continue
			}
			for _, kept := range plan.levels[li].pins {
				if kept < 0 {
					pinned++
				}
			}
			u, dofs := unitPattern(blocked.Levels[li].A)
			seen[dofs] = true
			g := graph.NewFromPattern(u.NRows, u.RowPtr, u.ColIdx)
			edges := edgeListGraph(u)
			if g.N != edges.N || !slices.Equal(g.Ptr, edges.Ptr) || !slices.Equal(g.Adj, edges.Adj) {
				t.Fatalf("%s level %d (%d units): pattern graph differs from the edge-list graph", tc.name, li, u.NRows)
			}
			nb := smooth.DefaultBlockCount(lvl.A.Rows())
			want := graph.GreedyPartition(g, nb)
			if !slices.Equal(graph.GreedyPartition(edges, nb), want) {
				t.Fatalf("%s level %d: the partitions of the pattern graph and the edge-list graph differ", tc.name, li)
			}
			if !slices.Equal(graph.GreedyPartition(&graph.Graph{N: u.NRows, Ptr: u.RowPtr, Adj: u.ColIdx}, nb), want) {
				t.Fatalf("%s level %d: the partition of the pattern differs from the partition of its graph", tc.name, li)
			}
			if !sameBlocks(lvl.Smoother.Inner.Blocks(), expandUnits(graph.PartMembers(want, nb), dofs)) {
				t.Fatalf("%s level %d: the smoother's blocks are not the unit graph partition's", tc.name, li)
			}
		}
	}
	if pinned == 0 {
		t.Fatal("no level of any hierarchy pins a dof: the pinned case is not covered")
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("units of %v dofs partitioned, want both dofs and nodes", seen)
	}
}

// TestSmootherBlocksAreWholeNodes: every smoother block of every level
// Build stores in blocks holds every dof of each node it holds, and the
// scalar-kernel reference holds the same blocks, on the cube, the spheres,
// the cube with three single components fixed (a scalar fine level above
// blocked ones) and smoothed aggregation on the cube.
func TestSmootherBlocksAreWholeNodes(t *testing.T) {
	ck, _, crs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	sk, _, srs := buildSpheres(t)
	pk, _, prs := buildCube(t, 5, core.Options{MinCoarse: 10}, []int{0, 1, 2})
	c := problems.NewCube(5, material.LinearElastic{E: 1, Nu: 0.3}, -0.001)
	k, _, err := fem.NewProblem(c.Mesh, c.Models, false).AssembleTangent(make([]float64, c.Mesh.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	dm := c.Cons.NewDofMap(c.Mesh.NumDOF())
	ak, _ := c.Cons.Reduce(k, dm)
	ars, err := aggregation.BuildRestrictions(ak, aggregation.RigidBodyModes(c.Mesh.Coords, dm.Full2Red, dm.NumFree()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		k    *sparse.CSR
		rs   []*sparse.CSR
	}{
		{"cube", ck, crs},
		{"spheres", sk, srs},
		{"cube with three components fixed", pk, prs},
		{"aggregation", ak, ars},
	} {
		mg, _, err := Build(nil, tc.k, tc.rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := scalarBuild(nil, tc.k, tc.rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for li, lvl := range mg.Levels {
			b, ok := lvl.A.(*sparse.BSR)
			if !ok || lvl.Smoother == nil {
				continue
			}
			checked++
			block := make([]int, b.Rows())
			for bi, dofs := range lvl.Smoother.Inner.Blocks() {
				for _, d := range dofs {
					block[d] = bi
				}
			}
			for d := range block {
				if node := d / b.B; block[d] != block[node*b.B] {
					t.Fatalf("%s level %d: node %d is split between blocks %d and %d", tc.name, li, node, block[node*b.B], block[d])
				}
			}
			if !slices.EqualFunc(lvl.Smoother.Inner.Blocks(), ref.Levels[li].Smoother.Inner.Blocks(), slices.Equal[[]int]) {
				t.Fatalf("%s level %d: the scalar reference holds other blocks", tc.name, li)
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no smoothed level is blocked", tc.name)
		}
	}
}

// TestPlanFillAllocatesItsValues: a build from a reused plan allocates the
// values it fills and little else — at most twice the bytes of the
// hierarchy's values (level operators, block factors, coarse factor) —
// and the patterns the plan keeps beyond the hierarchy's own take less
// than an eighth of those values. Each level is one matrix: the spheres
// hierarchy, whose first Galerkin level is formed in scalar rows and
// pinned, allocates no more per byte of values than the cube, blocked
// throughout with no pins, and keeps no scalar copy of a blocked level's
// pattern.
func TestPlanFillAllocatesItsValues(t *testing.T) {
	ck, _, crs := buildElasticity(t, 6, core.Options{MinCoarse: 10})
	sk, _, srs := buildSpheres(t)
	var cubeRatio float64
	for _, tc := range []struct {
		name string
		k    *sparse.CSR
		rs   []*sparse.CSR
	}{
		{"cube, BSR fine", ck, crs},
		{"spheres, CSR fine, pinned level formed in blocks", sk, srs},
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
		if 8*retained > values {
			t.Errorf("%s: the plan retains %d bytes of patterns beyond the hierarchy's, more than an eighth of its %d bytes of values", tc.name, retained, values)
		}
		ratio := float64(got) / float64(values)
		if cubeRatio == 0 {
			cubeRatio = ratio
		} else if ratio > cubeRatio {
			t.Errorf("%s: %.3f bytes allocated per byte of values, more than the cube's %.3f", tc.name, ratio, cubeRatio)
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
			n += lvl.Direct.FactorLen()
		}
		if lvl.Smoother != nil {
			n += lvl.Smoother.Inner.FactorLen()
		}
	}
	return 8 * uint64(n)
}
