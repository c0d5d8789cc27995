// Package mesh provides the unstructured finite element meshes the solver
// operates on: vertex coordinates, Hex8/Tet4 element connectivity with
// per-element material ids, the vertex adjacency ("node") graph used by the
// MIS coarsening, and boundary facet extraction including material
// interfaces ("these include boundaries between material types",
// section 4.4).
package mesh

import (
	"fmt"
	"slices"
	"sort"

	"prometheus/internal/geom"
	"prometheus/internal/graph"
)

// ElemType distinguishes the supported element topologies.
type ElemType int

const (
	// Hex8 is an 8-node trilinear hexahedron with the usual node order:
	// nodes 0-3 on the bottom face (counterclockwise seen from above),
	// nodes 4-7 above them.
	Hex8 ElemType = iota
	// Tet4 is a 4-node linear tetrahedron, positively oriented.
	Tet4
	// Hex20 is the 20-node serendipity hexahedron (the paper's "higher
	// order elements" future work): nodes 0-7 are the Hex8 corners, nodes
	// 8-11 the bottom edge midsides (01,12,23,30), 12-15 the top edge
	// midsides (45,56,67,74), and 16-19 the vertical edge midsides
	// (04,15,26,37).
	Hex20
)

// NodesPerElem returns the connectivity length of the element type.
func (t ElemType) NodesPerElem() int {
	switch t {
	case Hex8:
		return 8
	case Hex20:
		return 20
	default:
		return 4
	}
}

// Mesh is an unstructured mesh with a homogeneous element type.
type Mesh struct {
	Type   ElemType
	Coords []geom.Vec3
	Elems  [][]int // element connectivity, len NodesPerElem each
	Mat    []int   // material id per element (len == len(Elems))
}

// NumVerts returns the number of vertices.
func (m *Mesh) NumVerts() int { return len(m.Coords) }

// NumElems returns the number of elements.
func (m *Mesh) NumElems() int { return len(m.Elems) }

// NumDOF returns the number of displacement degrees of freedom (3/vertex).
func (m *Mesh) NumDOF() int { return 3 * len(m.Coords) }

// Validate checks structural invariants and returns a descriptive error.
func (m *Mesh) Validate() error {
	npe := m.Type.NodesPerElem()
	if len(m.Mat) != len(m.Elems) {
		return fmt.Errorf("mesh: %d elements but %d material ids", len(m.Elems), len(m.Mat))
	}
	for e, conn := range m.Elems {
		if len(conn) != npe {
			return fmt.Errorf("mesh: element %d has %d nodes, want %d", e, len(conn), npe)
		}
		for _, v := range conn {
			if v < 0 || v >= len(m.Coords) {
				return fmt.Errorf("mesh: element %d references vertex %d out of %d", e, v, len(m.Coords))
			}
		}
	}
	return nil
}

// NodeGraph returns the vertex adjacency graph: two vertices are adjacent
// when they share an element. This is the graph the MIS coarsening runs on.
func (m *Mesh) NodeGraph() *graph.Graph {
	ptr, adj := m.adjacency(false)
	return &graph.Graph{N: len(m.Coords), Ptr: ptr, Adj: adj}
}

// NodePattern returns, in CSR form, the block sparsity pattern of every
// operator assembled on the mesh: row v lists in ascending order the
// vertices that share an element with v, v itself included. A vertex no
// element references has an empty row.
func (m *Mesh) NodePattern() (ptr, idx []int) {
	return m.adjacency(true)
}

// adjacency is the kernel of NodeGraph and NodePattern. It inverts the
// connectivity into a vertex→element incidence, then merges the
// connectivity of each vertex's elements through a marker array: one pass
// counts the distinct neighbours of every vertex, a second writes and
// sorts them, so the arrays are allocated once at their final size. With
// self a vertex is listed in its own row, without it self references
// (the graph's would-be loops) are skipped.
func (m *Mesh) adjacency(self bool) (ptr, adj []int) {
	nv := len(m.Coords)
	// Incidence: the elements of vertex v are inc[incPtr[v]:incPtr[v+1]].
	incPtr := make([]int, nv+1)
	for _, conn := range m.Elems {
		for _, v := range conn {
			incPtr[v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		incPtr[v+1] += incPtr[v]
	}
	inc := make([]int, incPtr[nv])
	next := make([]int, nv)
	copy(next, incPtr)
	for e, conn := range m.Elems {
		for _, v := range conn {
			inc[next[v]] = e
			next[v]++
		}
	}

	// mark[w] holds the stamp of the last row that listed w; the fill
	// pass stamps v+nv so the count pass's stamps read as unseen.
	mark := next
	for i := range mark {
		mark[i] = -1
	}
	ptr = make([]int, nv+1)
	for v := 0; v < nv; v++ {
		if !self {
			mark[v] = v
		}
		n := 0
		for _, e := range inc[incPtr[v]:incPtr[v+1]] {
			for _, w := range m.Elems[e] {
				if mark[w] != v {
					mark[w] = v
					n++
				}
			}
		}
		ptr[v+1] = ptr[v] + n
	}
	adj = make([]int, ptr[nv])
	for v := 0; v < nv; v++ {
		stamp := v + nv
		if !self {
			mark[v] = stamp
		}
		n := ptr[v]
		for _, e := range inc[incPtr[v]:incPtr[v+1]] {
			for _, w := range m.Elems[e] {
				if mark[w] != stamp {
					mark[w] = stamp
					adj[n] = w
					n++
				}
			}
		}
		slices.Sort(adj[ptr[v]:n])
	}
	return ptr, adj
}

// hexFaces lists the local quad faces of a Hex8 with outward orientation.
var hexFaces = [6][4]int{
	{0, 3, 2, 1}, // zeta = -1 (bottom)
	{4, 5, 6, 7}, // zeta = +1 (top)
	{0, 1, 5, 4}, // eta = -1
	{1, 2, 6, 5}, // xi = +1
	{2, 3, 7, 6}, // eta = +1
	{3, 0, 4, 7}, // xi = -1
}

// hex20Faces lists the local faces of a Hex20: the Hex8 corner loop
// followed by the four midside nodes of the loop's edges.
var hex20Faces = [6][8]int{
	{0, 3, 2, 1, 11, 10, 9, 8},   // zeta = -1
	{4, 5, 6, 7, 12, 13, 14, 15}, // zeta = +1
	{0, 1, 5, 4, 8, 17, 12, 16},  // eta = -1
	{1, 2, 6, 5, 9, 18, 13, 17},  // xi = +1
	{2, 3, 7, 6, 10, 19, 14, 18}, // eta = +1
	{3, 0, 4, 7, 11, 16, 15, 19}, // xi = -1
}

// tetFaces lists the local triangular faces of a positively oriented Tet4
// with outward orientation.
var tetFaces = [4][3]int{
	{0, 2, 1},
	{0, 1, 3},
	{1, 2, 3},
	{0, 3, 2},
}

// Facet is one boundary facet (a quad or triangle) of the mesh.
type Facet struct {
	Verts  []int     // vertex ids, outward-oriented
	Elem   int       // owning element
	Mat    int       // material of the owning element
	Normal geom.Vec3 // unit outward normal
}

// facetKey is the sorted vertex tuple identifying a facet regardless of
// orientation.
type facetKey [4]int

// keyOf identifies a facet by its (up to four) corner vertices; midside
// nodes of quadratic facets are excluded, so matching faces of adjacent
// elements collide as intended.
func keyOf(verts []int) facetKey {
	var k facetKey
	for i := range k {
		k[i] = -1
	}
	n := len(verts)
	if n > 4 {
		n = 4 // corners lead the facet vertex lists
	}
	copy(k[:], verts[:n])
	for i := 1; i < n; i++ {
		for j := i; j > 0 && k[j-1] > k[j]; j-- {
			k[j-1], k[j] = k[j], k[j-1]
		}
	}
	return k
}

// facetNormal returns the unit outward normal of the facet vertex loop.
func (m *Mesh) facetNormal(verts []int) geom.Vec3 {
	a := m.Coords[verts[0]]
	b := m.Coords[verts[1]]
	c := m.Coords[verts[2]]
	n := b.Sub(a).Cross(c.Sub(a))
	if len(verts) >= 4 {
		// Average the two triangle normals for a (possibly warped) quad
		// (quadratic facets list their corners first).
		d := m.Coords[verts[3]]
		n = n.Add(c.Sub(a).Cross(d.Sub(a)))
	}
	return n.Normalize()
}

// facetShape returns the facets per element of type t and the vertices
// per facet.
func (t ElemType) facetShape() (perElem, size int) {
	switch t {
	case Hex8:
		return 6, 4
	case Hex20:
		return 6, 8
	default:
		return 4, 3
	}
}

// facetVerts writes the facets of element e into dst, one after another,
// as outward-oriented vertex loops (corners first for quadratic facets).
func (m *Mesh) facetVerts(e int, dst []int) {
	conn := m.Elems[e]
	switch m.Type {
	case Hex8:
		for f, loc := range hexFaces {
			for i, l := range loc {
				dst[4*f+i] = conn[l]
			}
		}
	case Hex20:
		for f, loc := range hex20Faces {
			for i, l := range loc {
				dst[8*f+i] = conn[l]
			}
		}
	default:
		for f, loc := range tetFaces {
			for i, l := range loc {
				dst[3*f+i] = conn[l]
			}
		}
	}
}

// BoundaryFacets extracts the facets on the domain boundary plus the facets
// on interfaces between different materials (both sides are kept for
// interfaces, one per adjoining element). Facets are numbered element by
// element and bucketed by their smallest corner; within a bucket the first
// facet with a key leads every later one with that key. A facet led by no
// other is the exterior boundary, a pair is kept when its two elements'
// materials differ, and more than two (non-manifold) are each kept. Groups
// come out in the order of their leaders, each in facet order.
func (m *Mesh) BoundaryFacets() []Facet {
	per, size := m.Type.facetShape()
	n := len(m.Elems) * per
	verts := make([]int, n*size)
	for e := range m.Elems {
		m.facetVerts(e, verts[e*per*size:])
	}
	keys := make([]facetKey, n)
	for i := range keys {
		keys[i] = keyOf(verts[i*size : (i+1)*size])
	}
	nv := len(m.Coords)
	start := make([]int, nv+1)
	for _, k := range keys {
		start[k[0]+1]++
	}
	for v := 0; v < nv; v++ {
		start[v+1] += start[v]
	}
	bucket := make([]int, n)
	next := slices.Clone(start[:nv])
	for i, k := range keys {
		bucket[next[k[0]]] = i
		next[k[0]]++
	}
	// leader[i] is the first facet with i's key; sides[i] counts the facets
	// facet i leads, and is zeroed for a group that is not kept.
	leader := make([]int, n)
	sides := make([]int, n)
	for v := 0; v < nv; v++ {
		b := bucket[start[v]:start[v+1]]
		for x, i := range b {
			leader[i] = i
			for _, j := range b[:x] {
				if leader[j] == j && keys[j] == keys[i] {
					leader[i] = j
					break
				}
			}
			sides[leader[i]]++
		}
	}
	members := func(i int) []int {
		return bucket[start[keys[i][0]]:start[keys[i][0]+1]]
	}
	nOut := 0
	for i := range sides {
		if sides[i] == 2 {
			for _, j := range members(i) {
				if j != i && leader[j] == i && m.Mat[i/per] == m.Mat[j/per] {
					sides[i] = 0 // interior facet between one material
				}
			}
		}
		nOut += sides[i]
	}
	if nOut == 0 {
		return nil
	}
	out := make([]Facet, 0, nOut)
	outVerts := make([]int, 0, nOut*size)
	for i := range sides {
		if sides[i] == 0 {
			continue
		}
		for _, j := range members(i) {
			if leader[j] != i {
				continue
			}
			k := len(outVerts)
			outVerts = append(outVerts, verts[j*size:(j+1)*size]...)
			fv := outVerts[k : k+size : k+size]
			e := j / per
			out = append(out, Facet{Verts: fv, Elem: e, Mat: m.Mat[e], Normal: m.facetNormal(fv)})
		}
	}
	return out
}

// FacetAdjacency returns, for each facet, the indices of facets sharing an
// edge (two vertices) with it and belonging to the same material side. This
// is the f.adjac list of the face identification algorithm (Figure 3).
func FacetAdjacency(facets []Facet) [][]int {
	type edge [2]int
	edgeMap := make(map[edge][]int)
	edgesOf := func(f Facet) []edge {
		// The geometric edge loop runs over the facet corners; quadratic
		// facets list midside nodes after the corners.
		n := len(f.Verts)
		if n > 4 {
			n = 4
		}
		out := make([]edge, n)
		for i := 0; i < n; i++ {
			a, b := f.Verts[i], f.Verts[(i+1)%n]
			if a > b {
				a, b = b, a
			}
			out[i] = edge{a, b}
		}
		return out
	}
	for i, f := range facets {
		for _, e := range edgesOf(f) {
			edgeMap[e] = append(edgeMap[e], i)
		}
	}
	adj := make([][]int, len(facets))
	seen := make([]map[int]bool, len(facets))
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	for _, list := range edgeMap {
		for _, i := range list {
			for _, j := range list {
				if i == j || facets[i].Mat != facets[j].Mat || seen[i][j] {
					continue
				}
				seen[i][j] = true
				adj[i] = append(adj[i], j)
			}
		}
	}
	// Sort for determinism: edgeMap iteration order varies between runs,
	// and the face identification BFS is sensitive to adjacency order.
	for i := range adj {
		sort.Ints(adj[i])
	}
	return adj
}

// ExteriorVerts returns the set of vertices lying on any boundary facet
// (section 4.3's "exterior vertices"; continuum elements make this trivial).
func ExteriorVerts(n int, facets []Facet) []bool {
	ext := make([]bool, n)
	for _, f := range facets {
		for _, v := range f.Verts {
			ext[v] = true
		}
	}
	return ext
}

// Quality returns the minimum and mean scaled Jacobian (Hex8) or the
// minimum and mean volume ratio (Tet4) across elements — a cheap mesh
// sanity metric used by tests and the hierarchy report.
func (m *Mesh) Quality() (min, mean float64) {
	min = 1e300
	if m.NumElems() == 0 {
		return 0, 0
	}
	for _, conn := range m.Elems {
		var q float64
		if m.Type == Tet4 {
			q = geom.TetVolume(m.Coords[conn[0]], m.Coords[conn[1]], m.Coords[conn[2]], m.Coords[conn[3]])
		} else {
			// Volume via the 8-corner tetrakis decomposition proxy: use the
			// scalar triple product at node 0.
			q = geom.TetVolume(m.Coords[conn[0]], m.Coords[conn[1]], m.Coords[conn[3]], m.Coords[conn[4]])
		}
		mean += q
		if q < min {
			min = q
		}
	}
	mean /= float64(m.NumElems())
	return min, mean
}
