package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"prometheus/internal/geom"
)

// pathGraph returns 0-1-2-...-n-1.
func pathGraph(n int) *Graph {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return NewGraph(n, edges)
}

// gridGraph returns an nx × ny 4-connected grid; vertex (i,j) = i*ny+j.
func gridGraph(nx, ny int) *Graph {
	var edges [][2]int
	id := func(i, j int) int { return i*ny + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if i+1 < nx {
				edges = append(edges, [2]int{id(i, j), id(i+1, j)})
			}
			if j+1 < ny {
				edges = append(edges, [2]int{id(i, j), id(i, j+1)})
			}
		}
	}
	return NewGraph(nx*ny, edges)
}

func randGraph(rng *rand.Rand, n, m int) *Graph {
	edges := make([][2]int, m)
	for k := range edges {
		edges[k] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return NewGraph(n, edges)
}

func TestNewGraphDedup(t *testing.T) {
	g := NewGraph(3, [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("missing edge 0-1")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self loop stored")
	}
	if g.Degree(2) != 0 {
		t.Fatal("vertex 2 should be isolated")
	}
}

// TestNewFromPatternMatchesEdgeList: on random patterns that are NOT
// structurally symmetric (an entry (i,j) says nothing about (j,i)), with
// diagonals, empty rows and dense rows, the two-pass pattern constructor
// returns the same arrays as NewGraph over the i<j edge list, and the
// partitioner therefore the same parts.
func TestNewFromPatternMatchesEdgeList(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		density := rng.Float64() * 0.2
		rowPtr := make([]int, n+1)
		var colIdx []int
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < density || (i == j && rng.Intn(2) == 0) {
					colIdx = append(colIdx, j)
					if i < j {
						edges = append(edges, [2]int{i, j})
					}
				}
			}
			rowPtr[i+1] = len(colIdx)
		}
		want := NewGraph(n, edges)
		got := NewFromPattern(n, rowPtr, colIdx)
		if got.N != want.N || !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Adj, want.Adj) {
			t.Fatalf("trial %d (n=%d): pattern graph differs from edge-list graph", trial, n)
		}
		nparts := 1 + rng.Intn(8)
		if !slices.Equal(GreedyPartition(got, nparts), GreedyPartition(want, nparts)) {
			t.Fatalf("trial %d: partitions differ", trial)
		}
	}
}

func TestMISPathNatural(t *testing.T) {
	// Natural order on a path selects every other vertex: maximum density.
	g := pathGraph(7)
	mis := MIS(g, NaturalOrder(7), nil, nil)
	if !IsMaximal(g, mis) {
		t.Fatal("not maximal")
	}
	if len(mis) != 4 {
		t.Fatalf("|MIS| = %d, want 4 (vertices 0,2,4,6)", len(mis))
	}
}

func TestMISInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		n := 2 + int(uint(seed)%60)
		g := randGraph(rng, n, 3*n)
		order := RandomOrder(n, uint64(seed))
		mis := MIS(g, order, nil, nil)
		return IsMaximal(g, mis)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMISWithRanks(t *testing.T) {
	// Star: center 0 adjacent to 1..5. Give vertex 3 the highest rank: it
	// must be in the MIS, and the center must not suppress it.
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}
	g := NewGraph(6, edges)
	rank := []int{0, 0, 0, 3, 0, 0}
	order := RankedOrder(rank, NaturalOrder(6))
	mis := MIS(g, order, rank, nil)
	if !IsMaximal(g, mis) {
		t.Fatal("not maximal")
	}
	found := false
	for _, v := range mis {
		if v == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("high-rank vertex 3 not selected: %v", mis)
	}
}

func TestMISImmortal(t *testing.T) {
	// Triangle with all vertices immortal: all must be selected even though
	// that breaks independence between immortals is impossible — immortals
	// are selected but cannot be deleted; on a triangle the first immortal
	// selected deletes nothing (others immortal) so all three are selected.
	// The paper's corners behave this way: "we do not allow corners to be
	// deleted at all", accepting dense corner sets on the coarse grid.
	g := NewGraph(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	imm := []bool{true, true, true}
	mis := MIS(g, NaturalOrder(3), nil, imm)
	if len(mis) != 3 {
		t.Fatalf("immortal vertices must all be kept, got %v", mis)
	}
	// With only vertex 1 immortal, vertex 1 is selected first and deletes
	// the others.
	mis = MIS(g, NaturalOrder(3), nil, []bool{false, true, false})
	if len(mis) != 1 || mis[0] != 1 {
		t.Fatalf("mis = %v, want [1]", mis)
	}
}

func TestMISOrderingDensity(t *testing.T) {
	// Section 4.7: natural orderings give denser MISs than random ones.
	// On a large 2D grid natural order picks ~1/4 (every other in each
	// dimension); random order is sparser on average but at least 1/5th.
	g := gridGraph(40, 40)
	nat := MIS(g, NaturalOrder(g.N), nil, nil)
	rnd := MIS(g, RandomOrder(g.N, 12345), nil, nil)
	if !IsMaximal(g, nat) || !IsMaximal(g, rnd) {
		t.Fatal("not maximal")
	}
	if len(nat) <= len(rnd) {
		t.Fatalf("natural (%d) should be denser than random (%d)", len(nat), len(rnd))
	}
	// On a 4-connected grid any maximal independent set has between N/5
	// (independent dominating set) and N/2 (checkerboard) vertices; the
	// natural row-major order achieves exactly the checkerboard.
	if len(nat) != g.N/2 {
		t.Fatalf("natural MIS size %d, want checkerboard %d", len(nat), g.N/2)
	}
	if len(rnd) < g.N/5 || len(rnd) > g.N/2 {
		t.Fatalf("random MIS size %d outside [%d,%d]", len(rnd), g.N/5, g.N/2)
	}
}

func TestFilterEdges(t *testing.T) {
	g := gridGraph(5, 5)
	// Keep only edges whose endpoints share the same parity of vertex id.
	h := g.FilterEdges(func(a, b int) bool { return a%2 == b%2 })
	for v := 0; v < h.N; v++ {
		for _, w := range h.Neighbors(v) {
			if v%2 != w%2 {
				t.Fatal("filter violated")
			}
		}
	}
}

func TestCuthillMcKeeIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randGraph(rng, 50, 120)
	for _, p := range [][]int{CuthillMcKee(g), ReverseCuthillMcKee(g), RandomOrder(50, 9)} {
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
		if len(p) != 50 {
			t.Fatal("wrong length")
		}
	}
}

func TestCuthillMcKeeReducesBandwidth(t *testing.T) {
	// On a grid numbered randomly, RCM should reduce the bandwidth.
	g := gridGraph(12, 12)
	shuffle := RandomOrder(g.N, 77)
	inv := make([]int, g.N)
	for newID, old := range shuffle {
		inv[old] = newID
	}
	var edges [][2]int
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				edges = append(edges, [2]int{inv[v], inv[w]})
			}
		}
	}
	shuffled := NewGraph(g.N, edges)
	bandwidth := func(gr *Graph, perm []int) int {
		pos := make([]int, gr.N)
		for k, v := range perm {
			pos[v] = k
		}
		bw := 0
		for v := 0; v < gr.N; v++ {
			for _, w := range gr.Neighbors(v) {
				if d := pos[v] - pos[w]; d > bw {
					bw = d
				} else if -d > bw {
					bw = -d
				}
			}
		}
		return bw
	}
	before := bandwidth(shuffled, NaturalOrder(g.N))
	after := bandwidth(shuffled, ReverseCuthillMcKee(shuffled))
	if after >= before {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
}

func TestGreedyPartitionBalanced(t *testing.T) {
	g := gridGraph(20, 20)
	for _, np := range []int{1, 2, 3, 7, 8} {
		part := GreedyPartition(g, np)
		sizes := PartSizes(part, np)
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total != g.N {
			t.Fatalf("np=%d: sizes %v don't cover graph", np, sizes)
		}
		target := (g.N + np - 1) / np
		for p, s := range sizes {
			if s > 2*target {
				t.Fatalf("np=%d: part %d badly oversized: %v", np, p, sizes)
			}
		}
	}
}

func TestRCBBalancedAndCut(t *testing.T) {
	// Points on a 10x10x4 lattice.
	var pts []geom.Vec3
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			for k := 0; k < 4; k++ {
				pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	for _, np := range []int{2, 3, 4, 6} {
		part := RCB(pts, np)
		sizes := PartSizes(part, np)
		for _, s := range sizes {
			if s < len(pts)/np-np || s > len(pts)/np+np {
				t.Fatalf("np=%d unbalanced: %v", np, sizes)
			}
		}
	}
	// RCB on the lattice graph should have a reasonable edge cut: compare
	// with a random partition.
	g := gridGraph(20, 20)
	var pts2 []geom.Vec3
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			pts2 = append(pts2, geom.Vec3{X: float64(i), Y: float64(j)})
		}
	}
	rcbPart := RCB(pts2, 4)
	randPart := make([]int, g.N)
	rng := rand.New(rand.NewSource(3))
	for i := range randPart {
		randPart[i] = rng.Intn(4)
	}
	if CutEdges(g, rcbPart) >= CutEdges(g, randPart) {
		t.Fatal("RCB cut should beat random cut")
	}
}

func TestPartMembers(t *testing.T) {
	part := []int{0, 1, 0, 2, 1}
	m := PartMembers(part, 3)
	if len(m[0]) != 2 || m[0][0] != 0 || m[0][1] != 2 {
		t.Fatalf("members = %v", m)
	}
	if len(m[2]) != 1 || m[2][0] != 3 {
		t.Fatalf("members = %v", m)
	}
}

func TestRankedOrder(t *testing.T) {
	rank := []int{0, 2, 1, 2, 0}
	order := RankedOrder(rank, NaturalOrder(5))
	// Expect ranks descending: 1,3 (rank 2), 2 (rank 1), 0,4 (rank 0).
	want := []int{1, 3, 2, 0, 4}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestGreedyPartitionQuickProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		n := 2 + int(uint(seed)%80)
		g := randGraph(rng, n, 2*n)
		np := 1 + int(uint(seed/7)%6)
		part := GreedyPartition(g, np)
		sizes := PartSizes(part, np)
		total := 0
		for p, s := range sizes {
			total += s
			// Strict quota: no part exceeds ceil(n/np).
			if s > (n+np-1)/np {
				t.Logf("part %d oversized: %v (n=%d np=%d)", p, sizes, n, np)
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRCBQuickBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		n := 8 + int(uint(seed)%200)
		pts := make([]geom.Vec3, n)
		for i := range pts {
			pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
		np := 2 + int(uint(seed/5)%6)
		part := RCB(pts, np)
		sizes := PartSizes(part, np)
		for _, s := range sizes {
			if s < n/np-1 || s > n/np+np {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMISQuickOnModifiedStyleGraphs(t *testing.T) {
	// MIS invariants hold after arbitrary edge filtering (the modified
	// graphs of section 4.6 are exactly such subgraphs).
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		n := 2 + int(uint(seed)%50)
		g := randGraph(rng, n, 3*n)
		h := g.FilterEdges(func(a, b int) bool { return (a+b)%3 != 0 })
		rank := make([]int, n)
		imm := make([]bool, n)
		for v := range rank {
			rank[v] = v % 4
			imm[v] = v%17 == 0
		}
		order := RankedOrder(rank, RandomOrder(n, uint64(seed)))
		mis := MIS(h, order, rank, imm)
		// All immortals present.
		in := make(map[int]bool, len(mis))
		for _, v := range mis {
			in[v] = true
		}
		for v := range imm {
			if imm[v] && !in[v] {
				return false
			}
		}
		// Independence among mortals, maximality overall: immortal pairs
		// may be adjacent, so check the mortal subset and coverage.
		for _, v := range mis {
			for _, w := range h.Neighbors(v) {
				if in[w] && !(imm[v] && imm[w]) {
					return false
				}
			}
		}
		for v := 0; v < n; v++ {
			if in[v] {
				continue
			}
			covered := false
			for _, w := range h.Neighbors(v) {
				if in[w] {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestTwoLevelRCB(t *testing.T) {
	var pts []geom.Vec3
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j)})
		}
	}
	const nodes, ppn = 3, 4
	part := TwoLevelRCB(pts, nodes, ppn)
	sizes := PartSizes(part, nodes*ppn)
	for p, s := range sizes {
		if s < len(pts)/(nodes*ppn)-3 || s > len(pts)/(nodes*ppn)+3 {
			t.Fatalf("rank %d unbalanced: %v", p, sizes)
		}
	}
	// The first-level split must agree with plain RCB on the node count:
	// ranks of the same node form contiguous geometric regions, so the
	// node-level partition (rank/ppn) must match RCB(pts, nodes) sizes.
	nodeSizes := make([]int, nodes)
	for _, r := range part {
		nodeSizes[r/ppn]++
	}
	want := PartSizes(RCB(pts, nodes), nodes)
	for n := range nodeSizes {
		if nodeSizes[n] != want[n] {
			t.Fatalf("node sizes %v, want %v", nodeSizes, want)
		}
	}
}
