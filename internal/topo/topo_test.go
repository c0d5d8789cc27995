package topo

import (
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/mesh"
)

// cube returns an n×n×n unit cube mesh with its boundary machinery.
func cube(n int) (*mesh.Mesh, []mesh.Facet, [][]int) {
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	facets := m.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	return m, facets, adj
}

func TestIdentifyFacesCube(t *testing.T) {
	_, facets, adj := cube(3)
	faceID, n := IdentifyFaces(facets, adj, DefaultTOL)
	if n != 6 {
		t.Fatalf("cube should have 6 faces, got %d", n)
	}
	// All facets with the same normal must share a face id.
	byNormal := make(map[geom.Vec3]int)
	for i, f := range facets {
		if prev, ok := byNormal[f.Normal]; ok {
			if faceID[i] != prev {
				t.Fatalf("face split: normal %v has ids %d and %d", f.Normal, prev, faceID[i])
			}
		} else {
			byNormal[f.Normal] = faceID[i]
		}
	}
	if len(byNormal) != 6 {
		t.Fatalf("normals = %d", len(byNormal))
	}
}

func TestClassifyCube(t *testing.T) {
	m, facets, adj := cube(3)
	faceID, _ := IdentifyFaces(facets, adj, DefaultTOL)
	c := Classify(m.NumVerts(), facets, faceID)
	counts := map[int]int{}
	for _, r := range c.Rank {
		counts[r]++
	}
	// 4^3 lattice: 8 corners, 12 edges × 2 inner verts = 24 edge verts,
	// 6 faces × 4 inner verts = 24 surface verts, 8 interior.
	if counts[RankCorner] != 8 || counts[RankEdge] != 24 ||
		counts[RankSurface] != 24 || counts[RankInterior] != 8 {
		t.Fatalf("classification counts = %v", counts)
	}
	imm := c.Immortal()
	nImm := 0
	for _, b := range imm {
		if b {
			nImm++
		}
	}
	if nImm != 8 {
		t.Fatalf("immortal corners = %d", nImm)
	}
	// Corner vertices touch 3 faces; interior touch none.
	for v, r := range c.Rank {
		switch r {
		case RankCorner:
			if len(c.Faces[v]) != 3 {
				t.Fatalf("corner %d touches %d faces", v, len(c.Faces[v]))
			}
		case RankInterior:
			if len(c.Faces[v]) != 0 {
				t.Fatalf("interior %d touches faces %v", v, c.Faces[v])
			}
		}
	}
}

// thinSlab returns a 1-element-thick slab: nx × ny × 1 elements.
func thinSlab(nx, ny int) *mesh.Mesh {
	return mesh.StructuredHex(nx, ny, 1, float64(nx), float64(ny), 0.4, nil)
}

func TestModifiedGraphThinBody(t *testing.T) {
	// Section 4.6 and Figure 4: on a thin slab, top-face vertices are
	// adjacent (via elements) to bottom-face vertices; the modified graph
	// must delete those edges so opposing faces cannot decimate each other.
	m := thinSlab(6, 6)
	facets := m.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	faceID, _ := IdentifyFaces(facets, adj, DefaultTOL)
	c := Classify(m.NumVerts(), facets, faceID)
	g := m.NodeGraph()
	mg := c.ModifiedGraph(g)
	if mg.NumEdges() >= g.NumEdges() {
		t.Fatal("modified graph should remove edges")
	}
	// Find a pure top-face surface vertex and check it lost its bottom
	// neighbours.
	top := m.VertsWhere(func(p geom.Vec3) bool { return p.Z > 0.39 })
	bottom := make(map[int]bool)
	for _, v := range m.VertsWhere(func(p geom.Vec3) bool { return p.Z < 0.01 }) {
		bottom[v] = true
	}
	checked := false
	for _, v := range top {
		if c.Rank[v] != RankSurface {
			continue
		}
		for _, w := range mg.Neighbors(v) {
			if bottom[w] && c.Rank[w] == RankSurface {
				t.Fatalf("surface vertex %d still adjacent to opposing surface vertex %d", v, w)
			}
		}
		checked = true
	}
	if !checked {
		t.Fatal("no surface vertex found on top face")
	}
	// Edges to interior vertices are kept. (A 1-element-thick slab has no
	// interior vertices, so check on a thicker mesh.)
	m2 := mesh.StructuredHex(4, 4, 4, 1, 1, 1, nil)
	c2 := Reclassify(m2, DefaultTOL)
	g2 := m2.NodeGraph()
	mg2 := c2.ModifiedGraph(g2)
	for v := 0; v < g2.N; v++ {
		if c2.Rank[v] != RankInterior {
			continue
		}
		if g2.Degree(v) != mg2.Degree(v) {
			t.Fatalf("interior vertex %d lost edges", v)
		}
	}
}

func TestMISOnModifiedGraphCoversThinBody(t *testing.T) {
	// The end-to-end property behind Figures 4-6: with the modified graph
	// and rank ordering, both faces of a thin region keep representation.
	m := thinSlab(8, 8)
	facets := m.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	faceID, _ := IdentifyFaces(facets, adj, DefaultTOL)
	c := Classify(m.NumVerts(), facets, faceID)
	g := m.NodeGraph()
	mg := c.ModifiedGraph(g)
	order := graph.RankedOrder(c.Rank, graph.NaturalOrder(g.N))
	mis := graph.MIS(mg, order, c.Rank, c.Immortal())
	// Both z-extremes must appear in the MIS.
	hasTop, hasBottom := false, false
	for _, v := range mis {
		if m.Coords[v].Z > 0.39 {
			hasTop = true
		}
		if m.Coords[v].Z < 0.01 {
			hasBottom = true
		}
	}
	if !hasTop || !hasBottom {
		t.Fatalf("thin body lost a face: top=%v bottom=%v", hasTop, hasBottom)
	}
	// Contrast: count MIS membership per face on the plain graph ordered
	// naturally; the modified-graph MIS must cover at least as many
	// distinct faces.
	misPlain := graph.MIS(g, graph.NaturalOrder(g.N), nil, nil)
	facesCovered := func(set []int) int {
		got := map[int]bool{}
		for _, v := range set {
			for _, f := range c.Faces[v] {
				got[f] = true
			}
		}
		return len(got)
	}
	if facesCovered(mis) < facesCovered(misPlain) {
		t.Fatalf("modified MIS covers %d faces < plain %d", facesCovered(mis), facesCovered(misPlain))
	}
}

func TestReclassifyMatchesClassify(t *testing.T) {
	m, facets, adj := cube(3)
	faceID, _ := IdentifyFaces(facets, adj, DefaultTOL)
	want := Classify(m.NumVerts(), facets, faceID)
	got := Reclassify(m, DefaultTOL)
	for v := range want.Rank {
		if want.Rank[v] != got.Rank[v] {
			t.Fatalf("rank mismatch at %d: %d vs %d", v, want.Rank[v], got.Rank[v])
		}
	}
}

func TestIdentifyFacesTOLSweep(t *testing.T) {
	// With TOL = -1 every connected boundary is a single face; with TOL
	// close to 1 every facet is its own face (flat cube faces still merge).
	_, facets, adj := cube(2)
	_, loose := IdentifyFaces(facets, adj, -1.1)
	if loose != 1 {
		t.Fatalf("TOL<-1 should yield one face, got %d", loose)
	}
	_, strict := IdentifyFaces(facets, adj, 0.999999)
	if strict != 6 {
		t.Fatalf("strict TOL on a cube should still find 6 flat faces, got %d", strict)
	}
}
