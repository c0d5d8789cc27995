package graph_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/mesh"
	"prometheus/internal/sortutil"
	"prometheus/internal/topo"
)

// referenceFilterEdges is FilterEdges as it was before the keep mask: one
// set per vertex, filled per kept edge, flattened through sorted keys.
func referenceFilterEdges(g *graph.Graph, keep func(a, b int) bool) *graph.Graph {
	adj := make([]map[int]struct{}, g.N)
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if v >= w || !keep(v, w) {
				continue
			}
			if adj[v] == nil {
				adj[v] = make(map[int]struct{}, 8)
			}
			if adj[w] == nil {
				adj[w] = make(map[int]struct{}, 8)
			}
			adj[v][w] = struct{}{}
			adj[w][v] = struct{}{}
		}
	}
	ptr := make([]int, g.N+1)
	var flat []int
	for v, s := range adj {
		flat = append(flat, sortutil.Keys(s)...)
		ptr[v+1] = len(flat)
	}
	return &graph.Graph{N: g.N, Ptr: ptr, Adj: flat}
}

// modifiedGraphKeep is section 4.6's predicate as topo applies it: keep an
// edge with an interior end, or whose ends share a face.
func modifiedGraphKeep(c *topo.Classification) func(a, b int) bool {
	return func(a, b int) bool {
		if c.Rank[a] == topo.RankInterior || c.Rank[b] == topo.RankInterior {
			return true
		}
		for _, f := range c.Faces[a] {
			if slices.Contains(c.Faces[b], f) {
				return true
			}
		}
		return false
	}
}

// layered gives an element the material of its centroid's band in x + 2z.
func layered(c geom.Vec3) int { return int(math.Floor(1.5*c.X+3*c.Z)) % 3 }

// TestFilterEdgesMatchesReference pins FilterEdges to the set version on
// the node graphs of hex8, hex20 and tet meshes with material interfaces,
// under the modified-graph predicate of their classification and under
// one that drops about a third of the edges: the same calls of keep in
// the same order, and the same graph array for array.
func TestFilterEdgesMatchesReference(t *testing.T) {
	hex := mesh.StructuredHex(4, 3, 3, 1, 1, 1, layered)
	meshes := map[string]*mesh.Mesh{
		"hex8":  hex,
		"hex20": mesh.StructuredHex20(3, 3, 2, 1, 1, 1, layered),
		"tet4":  mesh.HexToTets(hex),
	}
	for _, name := range sortutil.Keys(meshes) {
		m := meshes[name]
		g := m.NodeGraph()
		cls := topo.Reclassify(m, topo.DefaultTOL)
		for _, c := range []struct {
			pred string
			keep func(a, b int) bool
		}{
			{"modified graph", modifiedGraphKeep(cls)},
			{"a third dropped", func(a, b int) bool { return (7*a+b)%3 != 0 }},
		} {
			if err := sameFilter(g, c.keep); err != nil {
				t.Errorf("%s, %s: %v", name, c.pred, err)
			}
		}
	}
}

// sameFilter runs FilterEdges and the reference with keep, recording the
// calls each makes.
func sameFilter(g *graph.Graph, keep func(a, b int) bool) error {
	var calls [2][][2]int
	run := func(i int, filter func(*graph.Graph, func(a, b int) bool) *graph.Graph) *graph.Graph {
		return filter(g, func(a, b int) bool {
			calls[i] = append(calls[i], [2]int{a, b})
			return keep(a, b)
		})
	}
	got := run(0, (*graph.Graph).FilterEdges)
	want := run(1, referenceFilterEdges)
	if !slices.Equal(calls[0], calls[1]) {
		return fmt.Errorf("keep called %d times, the reference %d, or in another order", len(calls[0]), len(calls[1]))
	}
	if got.N != want.N || !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Adj, want.Adj) {
		return fmt.Errorf("%d edges, the reference keeps %d, or other ones", got.NumEdges(), want.NumEdges())
	}
	return nil
}
