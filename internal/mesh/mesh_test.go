package mesh

import (
	"math"
	"slices"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/graph"
)

func TestStructuredHexCounts(t *testing.T) {
	m := StructuredHex(3, 2, 4, 3, 2, 4, nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumVerts() != 4*3*5 {
		t.Fatalf("verts = %d", m.NumVerts())
	}
	if m.NumElems() != 3*2*4 {
		t.Fatalf("elems = %d", m.NumElems())
	}
	if m.NumDOF() != 3*m.NumVerts() {
		t.Fatal("NumDOF")
	}
}

func TestStructuredHexGeometry(t *testing.T) {
	m := StructuredHex(2, 2, 2, 2, 2, 2, nil)
	// All elements should be unit cubes: positive volume proxy.
	min, mean := m.Quality()
	if min <= 0 {
		t.Fatalf("min quality %v", min)
	}
	if math.Abs(mean-min) > 1e-12 {
		t.Fatalf("uniform mesh should have uniform quality: %v vs %v", min, mean)
	}
	box := geom.NewAABB(m.Coords)
	if box.Min != (geom.Vec3{}) || box.Max != (geom.Vec3{X: 2, Y: 2, Z: 2}) {
		t.Fatalf("box = %+v", box)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	m := StructuredHex(1, 1, 1, 1, 1, 1, nil)
	m.Elems[0][0] = 99
	if m.Validate() == nil {
		t.Fatal("expected out-of-range error")
	}
	m = StructuredHex(1, 1, 1, 1, 1, 1, nil)
	m.Mat = nil
	if m.Validate() == nil {
		t.Fatal("expected material count error")
	}
	m = StructuredHex(1, 1, 1, 1, 1, 1, nil)
	m.Elems[0] = m.Elems[0][:5]
	if m.Validate() == nil {
		t.Fatal("expected connectivity length error")
	}
}

func TestNodeGraph(t *testing.T) {
	m := StructuredHex(2, 1, 1, 2, 1, 1, nil)
	g := m.NodeGraph()
	if g.N != m.NumVerts() {
		t.Fatal("graph size")
	}
	// Corner vertex 0 shares an element with exactly 7 others.
	if g.Degree(0) != 7 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	// A vertex on the shared face of both elements touches all 11 others.
	shared := m.VertsWhere(func(p geom.Vec3) bool { return p.X == 1 })
	if len(shared) != 4 {
		t.Fatalf("shared verts = %d", len(shared))
	}
	if g.Degree(shared[0]) != 11 {
		t.Fatalf("shared face degree = %d", g.Degree(shared[0]))
	}
}

// edgeListGraph is the reference NodeGraph: every vertex pair of every
// element poured into graph.NewGraph's per-vertex sets.
func edgeListGraph(m *Mesh) *graph.Graph {
	var edges [][2]int
	for _, conn := range m.Elems {
		for i := 0; i < len(conn); i++ {
			for j := i + 1; j < len(conn); j++ {
				edges = append(edges, [2]int{conn[i], conn[j]})
			}
		}
	}
	return graph.NewGraph(len(m.Coords), edges)
}

func TestNodeGraphMatchesEdgeList(t *testing.T) {
	hex := StructuredHex(4, 3, 5, 4, 3, 5, nil)
	isolated := StructuredHex(2, 2, 2, 1, 1, 1, nil)
	isolated.Coords = append(isolated.Coords, geom.Vec3{X: 9}) // in no element
	// An element that names one vertex twice must not give it a loop.
	repeated := StructuredHex(2, 1, 1, 2, 1, 1, nil)
	repeated.Elems[1][7] = repeated.Elems[1][6]
	for name, m := range map[string]*Mesh{
		"hex8":     hex,
		"tet4":     HexToTets(hex),
		"hex20":    StructuredHex20(3, 2, 2, 3, 2, 2, nil),
		"isolated": isolated,
		"repeated": repeated,
	} {
		got, want := m.NodeGraph(), edgeListGraph(m)
		if got.N != want.N || !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Adj, want.Adj) {
			t.Fatalf("%s: NodeGraph differs from the edge-list graph", name)
		}
		// NodePattern is the same rows with the diagonal merged in, for
		// every vertex some element references.
		ptr, idx, _ := m.NodePattern()
		for v := 0; v < m.NumVerts(); v++ {
			row := idx[ptr[v]:ptr[v+1]]
			wantRow := append([]int(nil), want.Neighbors(v)...)
			if want.Degree(v) > 0 {
				wantRow = append(wantRow, v)
				slices.Sort(wantRow)
			}
			if !slices.Equal(row, wantRow) {
				t.Fatalf("%s: pattern row %d = %v, want %v", name, v, row, wantRow)
			}
		}
	}
	if isolated.NodeGraph().Degree(isolated.NumVerts()-1) != 0 {
		t.Fatal("isolated vertex has neighbours")
	}
}

func TestBoundaryFacetsCube(t *testing.T) {
	m := StructuredHex(2, 2, 2, 1, 1, 1, nil)
	facets := m.BoundaryFacets()
	// 6 faces × 4 facets each.
	if len(facets) != 24 {
		t.Fatalf("boundary facets = %d, want 24", len(facets))
	}
	// All normals must be ± axis unit vectors and point outward.
	for _, f := range facets {
		n := f.Normal
		ax := math.Abs(n.X) + math.Abs(n.Y) + math.Abs(n.Z)
		if math.Abs(ax-1) > 1e-12 {
			t.Fatalf("normal %v not axis-aligned", n)
		}
		// Outward: centroid + normal must leave the unit cube.
		c := geom.Vec3{}
		for _, v := range f.Verts {
			c = c.Add(m.Coords[v])
		}
		c = c.Scale(1.0 / float64(len(f.Verts)))
		out := c.Add(n.Scale(0.25))
		inside := out.X > 0 && out.X < 1 && out.Y > 0 && out.Y < 1 && out.Z > 0 && out.Z < 1
		if inside {
			t.Fatalf("normal %v at centroid %v points inward", n, c)
		}
	}
}

func TestMaterialInterfaceFacets(t *testing.T) {
	// Two materials split at x=1 in a 2x1x1 mesh: the interface contributes
	// one facet per side.
	m := StructuredHex(2, 1, 1, 2, 1, 1, func(c geom.Vec3) int {
		if c.X < 1 {
			return 0
		}
		return 1
	})
	facets := m.BoundaryFacets()
	// Exterior: 2 ends + 2*2 sides * 2 + ... total exterior quads = 2*(1)+2*(2)+2*(2) = 10.
	// Interface adds 2 (one per side).
	if len(facets) != 12 {
		t.Fatalf("facets = %d, want 12", len(facets))
	}
	nInterface := 0
	for _, f := range facets {
		c := geom.Vec3{}
		for _, v := range f.Verts {
			c = c.Add(m.Coords[v])
		}
		c = c.Scale(0.25)
		if math.Abs(c.X-1) < 1e-12 {
			nInterface++
		}
	}
	if nInterface != 2 {
		t.Fatalf("interface facets = %d, want 2", nInterface)
	}
}

func TestFacetAdjacency(t *testing.T) {
	m := StructuredHex(2, 2, 1, 1, 1, 1, nil)
	facets := m.BoundaryFacets()
	adj := FacetAdjacency(facets)
	if len(adj) != len(facets) {
		t.Fatal("adjacency length")
	}
	for i, f := range facets {
		// Every boundary facet of a closed surface has at least one
		// edge-neighbour; quads on this mesh have 4 edges each shared.
		if len(adj[i]) < 2 {
			t.Fatalf("facet %d (%v) has %d neighbours", i, f.Verts, len(adj[i]))
		}
		for _, j := range adj[i] {
			if facets[j].Mat != f.Mat {
				t.Fatal("adjacency crosses material sides")
			}
		}
	}
}

func TestExteriorVerts(t *testing.T) {
	m := StructuredHex(3, 3, 3, 1, 1, 1, nil)
	facets := m.BoundaryFacets()
	ext := ExteriorVerts(m.NumVerts(), facets)
	nExt := 0
	for _, e := range ext {
		if e {
			nExt++
		}
	}
	// 4^3 lattice: interior is 2^3 = 8, exterior 64-8 = 56.
	if nExt != 56 {
		t.Fatalf("exterior verts = %d, want 56", nExt)
	}
	// The interior vertex must not be exterior.
	interior := m.VertsWhere(func(p geom.Vec3) bool {
		return p.X > 0.2 && p.X < 0.8 && p.Y > 0.2 && p.Y < 0.8 && p.Z > 0.2 && p.Z < 0.8
	})
	for _, v := range interior {
		if ext[v] {
			t.Fatalf("interior vertex %d marked exterior", v)
		}
	}
}

func TestTet4Facets(t *testing.T) {
	// A single positively oriented tetrahedron.
	m := &Mesh{
		Type: Tet4,
		Coords: []geom.Vec3{
			{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1},
		},
		Elems: [][]int{{0, 1, 2, 3}},
		Mat:   []int{0},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if v := geom.TetVolume(m.Coords[0], m.Coords[1], m.Coords[2], m.Coords[3]); v <= 0 {
		t.Fatalf("setup: negative volume %v", v)
	}
	facets := m.BoundaryFacets()
	if len(facets) != 4 {
		t.Fatalf("facets = %d", len(facets))
	}
	// Outward normals: centroid of tet is inside; facet centroid + normal
	// must increase distance from the tet centroid.
	tc := geom.Vec3{X: 0.25, Y: 0.25, Z: 0.25}
	for _, f := range facets {
		c := geom.Vec3{}
		for _, v := range f.Verts {
			c = c.Add(m.Coords[v])
		}
		c = c.Scale(1.0 / 3)
		if c.Add(f.Normal.Scale(0.1)).Dist(tc) <= c.Dist(tc) {
			t.Fatalf("facet %v normal %v not outward", f.Verts, f.Normal)
		}
	}
}

func TestQualityTet(t *testing.T) {
	m := &Mesh{
		Type: Tet4,
		Coords: []geom.Vec3{
			{}, {X: 1}, {Y: 1}, {Z: 1},
		},
		Elems: [][]int{{0, 1, 2, 3}},
		Mat:   []int{0},
	}
	min, mean := m.Quality()
	if math.Abs(min-1.0/6) > 1e-12 || math.Abs(mean-1.0/6) > 1e-12 {
		t.Fatalf("quality = %v %v", min, mean)
	}
}

func TestHexToTets(t *testing.T) {
	m := StructuredHex(2, 2, 2, 1, 1, 1, func(c geom.Vec3) int {
		if c.X < 0.5 {
			return 0
		}
		return 1
	})
	tm := HexToTets(m)
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if tm.NumElems() != 6*m.NumElems() {
		t.Fatalf("tets = %d", tm.NumElems())
	}
	// Volume is preserved exactly.
	vol := 0.0
	for _, conn := range tm.Elems {
		v := geom.TetVolume(tm.Coords[conn[0]], tm.Coords[conn[1]], tm.Coords[conn[2]], tm.Coords[conn[3]])
		if v <= 0 {
			t.Fatalf("non-positive tet volume %v", v)
		}
		vol += v
	}
	if math.Abs(vol-1) > 1e-12 {
		t.Fatalf("total volume = %v", vol)
	}
	// Materials inherited.
	for e, conn := range m.Elems {
		_ = conn
		for i := 0; i < 6; i++ {
			if tm.Mat[6*e+i] != m.Mat[e] {
				t.Fatal("material not inherited")
			}
		}
	}
	// Boundary facets exist and are triangles.
	facets := tm.BoundaryFacets()
	if len(facets) == 0 {
		t.Fatal("no boundary")
	}
	for _, f := range facets {
		if len(f.Verts) != 3 {
			t.Fatalf("facet has %d verts", len(f.Verts))
		}
	}
}
