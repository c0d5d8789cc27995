// Package topo implements the geometric heuristics at the heart of the
// paper's coarsening: the face identification algorithm of Figure 3, the
// topological classification of vertices (interior / surface / edge /
// corner, section 4.4), and the modified MIS graph of section 4.6 that
// protects thin regions and features.
package topo

import (
	"prometheus/internal/graph"
	"prometheus/internal/mesh"
	"prometheus/internal/sortutil"
)

// Vertex ranks of section 4.4. Higher ranks are coarsened first and cannot
// be suppressed by lower ranks.
const (
	RankInterior = 0
	RankSurface  = 1
	RankEdge     = 2
	RankCorner   = 3
)

// DefaultTOL is the face identification tolerance (cos of the maximum angle
// any facet of a face may make with the root facet and with its
// neighbours). cos(30°) keeps gently curved shells as single faces while
// separating the faces of a box.
const DefaultTOL = 0.866

// IdentifyFaces assigns a face id to every facet with the breadth-first
// algorithm of Figure 3: a face grows from an arbitrary root facet over
// adjacent facets whose normals stay within arccos(TOL) of both the root
// normal and the current facet's normal. Face ids are 1-based; the number
// of faces is returned.
func IdentifyFaces(facets []mesh.Facet, adj [][]int, tol float64) ([]int, int) {
	faceID := make([]int, len(facets))
	current := 0
	var list []int
	for f := range facets {
		if faceID[f] != 0 {
			continue
		}
		current++
		rootNorm := facets[f].Normal
		list = append(list[:0], f)
		faceID[f] = current
		for len(list) > 0 {
			g := list[0]
			list = list[1:]
			for _, f1 := range adj[g] {
				if faceID[f1] != 0 {
					continue
				}
				if rootNorm.Dot(facets[f1].Normal) > tol &&
					facets[g].Normal.Dot(facets[f1].Normal) > tol {
					faceID[f1] = current
					list = append(list, f1)
				}
			}
		}
	}
	return faceID, current
}

// Classification is the per-vertex topological data derived from the faces.
type Classification struct {
	// Rank is the vertex rank: RankInterior..RankCorner.
	Rank []int
	// Faces[v] is the sorted set of face ids incident to vertex v (empty
	// for interior vertices).
	Faces [][]int
}

// Classify computes vertex ranks from facet face ids (section 4.4): a
// vertex on exactly one face is a surface vertex, on two faces an edge
// vertex, on more a corner.
func Classify(nVerts int, facets []mesh.Facet, faceID []int) *Classification {
	sets := make([]map[int]bool, nVerts)
	for i, f := range facets {
		for _, v := range f.Verts {
			if sets[v] == nil {
				sets[v] = make(map[int]bool, 4)
			}
			sets[v][faceID[i]] = true
		}
	}
	c := &Classification{
		Rank:  make([]int, nVerts),
		Faces: make([][]int, nVerts),
	}
	for v := 0; v < nVerts; v++ {
		if sets[v] == nil {
			c.Rank[v] = RankInterior
			continue
		}
		ids := sortutil.Keys(sets[v])
		c.Faces[v] = ids
		switch len(ids) {
		case 1:
			c.Rank[v] = RankSurface
		case 2:
			c.Rank[v] = RankEdge
		default:
			c.Rank[v] = RankCorner
		}
	}
	return c
}

// Immortal returns the corner mask: the paper does not allow corners to be
// deleted at all.
func (c *Classification) Immortal() []bool {
	imm := make([]bool, len(c.Rank))
	for v, r := range c.Rank {
		imm[v] = r == RankCorner
	}
	return imm
}

// sharesFace reports whether two classified vertices touch a common face.
func (c *Classification) sharesFace(u, v int) bool {
	a, b := c.Faces[u], c.Faces[v]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// ModifiedGraph implements section 4.6: starting from the vertex adjacency
// graph g, delete every edge between two exterior vertices that do not
// share a face. This prevents vertices on one face of a thin region from
// decimating the vertices of an opposing face, corner vertices from
// deleting edge vertices of unrelated features, and surface vertices from
// deleting surface vertices of different surfaces. Edges with an interior
// endpoint are kept.
func (c *Classification) ModifiedGraph(g *graph.Graph) *graph.Graph {
	return g.FilterEdges(func(a, b int) bool {
		if c.Rank[a] == RankInterior || c.Rank[b] == RankInterior {
			return true
		}
		return c.sharesFace(a, b)
	})
}

// Reclassify recomputes ranks for a coarse grid from its own facets
// (section 4.6: "we mitigate this problem by reclassifying vertices on the
// coarser grids", applied from the third grid on). It is a convenience
// wrapper: extract boundary facets, identify faces, classify.
func Reclassify(m *mesh.Mesh, tol float64) *Classification {
	facets := m.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	faceID, _ := IdentifyFaces(facets, adj, tol)
	return Classify(m.NumVerts(), facets, faceID)
}
