package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// cuthillMcKeeSorted is the Cuthill-McKee ordering as CuthillMcKee built
// it before it shared PartOrder's core: roots and every vertex's
// neighbours sorted by degree in fresh slices.
func cuthillMcKeeSorted(g *Graph) []int {
	visited := make([]bool, g.N)
	perm := make([]int, 0, g.N)
	roots := NaturalOrder(g.N)
	sort.SliceStable(roots, func(a, b int) bool {
		return g.Degree(roots[a]) < g.Degree(roots[b])
	})
	var queue []int
	for _, root := range roots {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			perm = append(perm, v)
			nbs := append([]int(nil), g.Neighbors(v)...)
			sort.SliceStable(nbs, func(a, b int) bool {
				return g.Degree(nbs[a]) < g.Degree(nbs[b])
			})
			for _, w := range nbs {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return perm
}

// TestCuthillMcKeeMatchesReference: on random graphs with several
// components and on grids, CuthillMcKee is the sorted-slice construction
// it replaced, vertex for vertex.
func TestCuthillMcKeeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := []*Graph{gridGraph(9, 7), pathGraph(13), NewGraph(6, nil)}
	for rep := 0; rep < 30; rep++ {
		n := 1 + rng.Intn(80)
		graphs = append(graphs, randGraph(rng, n, rng.Intn(3*n)))
	}
	for i, g := range graphs {
		if got, want := CuthillMcKee(g), cuthillMcKeeSorted(g); !slices.Equal(got, want) {
			t.Fatalf("graph %d (%d vertices): %v, reference %v", i, g.N, got, want)
		}
	}
}

// TestPartOrderIsPartReverseCuthillMcKee: every part PartOrder orders is
// ReverseCuthillMcKee of the part's own subgraph, built as a graph of its
// own, mapped back to g's vertices; the order is the same whichever parts
// one call covers, and a pattern that lists each vertex among its own
// neighbours (a square matrix's, diagonal included) orders as its graph.
func TestPartOrderIsPartReverseCuthillMcKee(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for rep := 0; rep < 20; rep++ {
		n := 10 + rng.Intn(90)
		g := randGraph(rng, n, 2*n+rng.Intn(2*n))
		nparts := 1 + rng.Intn(6)
		part := GreedyPartition(g, nparts)
		whole := NewPartOrder(g, part, nparts)
		whole.Items(0, 0, nparts)
		split := NewPartOrder(g, part, nparts)
		for p := nparts - 1; p >= 0; p-- {
			split.Items(p%3, p, p+1)
		}
		withSelf := NewPartOrder(selfLooped(g), part, nparts)
		withSelf.Items(0, 0, nparts)
		for p, members := range PartMembers(part, nparts) {
			local := make([]int, n)
			var edges [][2]int
			for k, v := range members {
				local[v] = k
			}
			for _, v := range members {
				for _, w := range g.Neighbors(v) {
					if part[w] == p && v < w {
						edges = append(edges, [2]int{local[v], local[w]})
					}
				}
			}
			want := ReverseCuthillMcKee(NewGraph(len(members), edges))
			for k, l := range want {
				want[k] = members[l]
			}
			for name, o := range map[string]*PartOrder{"one call": whole, "one part per call": split, "self-looped pattern": withSelf} {
				if got := o.Parts()[p]; !slices.Equal(got, want) {
					t.Fatalf("rep %d part %d, %s: %v, want %v", rep, p, name, got, want)
				}
			}
		}
	}
}

// selfLooped returns g with every vertex listed among its own neighbours,
// in column order, as a square matrix's pattern lists its diagonal.
func selfLooped(g *Graph) *Graph {
	ptr := make([]int, g.N+1)
	adj := make([]int, 0, len(g.Adj)+g.N)
	for v := 0; v < g.N; v++ {
		row := append(slices.Clone(g.Neighbors(v)), v)
		slices.Sort(row)
		adj = append(adj, row...)
		ptr[v+1] = len(adj)
	}
	return &Graph{N: g.N, Ptr: ptr, Adj: adj}
}
