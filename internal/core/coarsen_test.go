package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"prometheus/internal/delaunay"
	"prometheus/internal/geom"
	"prometheus/internal/mesh"
	"prometheus/internal/problems"
	"prometheus/internal/sortutil"
	"prometheus/internal/sparse"
	"prometheus/internal/topo"
)

func cubeMesh(n int) *mesh.Mesh {
	return mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
}

func TestCoarsenCube(t *testing.T) {
	m := cubeMesh(6) // 343 vertices
	h, err := Coarsen(m, Options{MinCoarse: 20})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 2 {
		t.Fatalf("levels = %d, want >= 2", h.NumLevels())
	}
	counts, ratios := h.VertexReduction()
	for i := 1; i < len(counts); i++ {
		if counts[i] >= counts[i-1] {
			t.Fatalf("no reduction at level %d: %v", i, counts)
		}
	}
	// The paper bounds the hex-mesh MIS ratio by [1/27, 1/8]; with the
	// boundary-protecting heuristics the top levels run denser, so allow
	// generous slack while still requiring real coarsening.
	if ratios[0] > 0.5 || ratios[0] < 1.0/40 {
		t.Fatalf("first reduction ratio %v outside plausible range", ratios[0])
	}
}

func TestRestrictionPartitionOfUnity(t *testing.T) {
	m := cubeMesh(5)
	h, err := Coarsen(m, Options{MinCoarse: 20})
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l < h.NumLevels(); l++ {
		r := h.Grids[l].R
		nf := h.Grids[l-1].Mesh.NumVerts()
		// Column sums per fine dof must be 1 (linear shape functions sum
		// to one at every fine vertex): prolongation of the constant is
		// the constant.
		colSum := make([]float64, r.NCols)
		for i := 0; i < r.NRows; i++ {
			cols, vals := r.Row(i)
			for k, j := range cols {
				colSum[j] += vals[k]
			}
		}
		for j := 0; j < 3*nf; j++ {
			if math.Abs(colSum[j]-1) > 1e-6 {
				t.Fatalf("level %d: column %d sums to %v", l, j, colSum[j])
			}
		}
	}
}

func TestRestrictionComponentsDecoupled(t *testing.T) {
	// Displacement components never mix: R entries only connect dof c to
	// dof c.
	m := cubeMesh(4)
	h, err := Coarsen(m, Options{MinCoarse: 20})
	if err != nil {
		t.Fatal(err)
	}
	r := h.Grids[1].R
	for i := 0; i < r.NRows; i++ {
		cols, _ := r.Row(i)
		for _, j := range cols {
			if i%3 != j%3 {
				t.Fatalf("R mixes components: row %d col %d", i, j)
			}
		}
	}
}

func TestCoarseVerticesAreInjected(t *testing.T) {
	m := cubeMesh(4)
	h, err := Coarsen(m, Options{MinCoarse: 10})
	if err != nil {
		t.Fatal(err)
	}
	g1 := h.Grids[1]
	for j, v := range g1.Verts {
		for c := 0; c < 3; c++ {
			if got := g1.R.At(3*j+c, 3*v+c); math.Abs(got-1) > 1e-12 {
				t.Fatalf("coarse vertex %d not injected: R = %v", j, got)
			}
		}
	}
	// Coarse coords must equal the source fine coords.
	for j, v := range g1.Verts {
		if g1.Mesh.Coords[j] != m.Coords[v] {
			t.Fatalf("coarse vertex %d coords mismatch", j)
		}
	}
}

func TestCornersSurvive(t *testing.T) {
	// The 8 cube corners are immortal: they must appear on every grid that
	// the hierarchy builds (their coordinates are preserved).
	m := cubeMesh(5)
	h, err := Coarsen(m, Options{MinCoarse: 12})
	if err != nil {
		t.Fatal(err)
	}
	isCorner := func(p geom.Vec3) bool {
		at := func(x float64) bool { return x == 0 || x == 1 }
		return at(p.X) && at(p.Y) && at(p.Z)
	}
	for l := 1; l < h.NumLevels(); l++ {
		found := 0
		for _, p := range h.Grids[l].Mesh.Coords {
			if isCorner(p) {
				found++
			}
		}
		if found != 8 {
			t.Fatalf("level %d kept %d/8 corners", l, found)
		}
	}
}

func TestInheritThenReclassify(t *testing.T) {
	m := cubeMesh(6)
	h, err := Coarsen(m, Options{MinCoarse: 10, ReclassifyFrom: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 3 {
		t.Skip("hierarchy too shallow for this mesh size")
	}
	// Grid 1 inherits: each coarse vertex rank equals its fine source rank.
	g1 := h.Grids[1]
	for j, v := range g1.Verts {
		if g1.Class.Rank[j] != h.Grids[0].Class.Rank[v] {
			t.Fatalf("grid 1 vertex %d did not inherit rank", j)
		}
	}
	// Grid 2 is reclassified from its own tet mesh: ranks are still valid
	// categories.
	for _, r := range h.Grids[2].Class.Rank {
		if r < topo.RankInterior || r > topo.RankCorner {
			t.Fatalf("invalid rank %d", r)
		}
	}
}

func TestThinBodyCoverage(t *testing.T) {
	// Figures 4-6: a thin slab must keep both faces represented on the
	// coarse grid.
	m := mesh.StructuredHex(10, 10, 1, 10, 10, 0.3, nil)
	h, err := Coarsen(m, Options{MinCoarse: 10, MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 2 {
		t.Fatal("no coarse grid built")
	}
	top, bottom := 0, 0
	for _, p := range h.Grids[1].Mesh.Coords {
		if p.Z > 0.29 {
			top++
		}
		if p.Z < 0.01 {
			bottom++
		}
	}
	if top < 4 || bottom < 4 {
		t.Fatalf("thin body lost a face: top=%d bottom=%d", top, bottom)
	}
}

func TestCoarsenStopsAtMinCoarse(t *testing.T) {
	m := cubeMesh(3)
	h, err := Coarsen(m, Options{MinCoarse: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 1 {
		t.Fatalf("should not coarsen below MinCoarse: levels = %d", h.NumLevels())
	}
}

func TestCoarsenRejectsInvalidMesh(t *testing.T) {
	m := cubeMesh(2)
	m.Mat = nil
	if _, err := Coarsen(m, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

// referenceRestriction is the restriction builder as it was before the
// kernel, kept as the reference the kernel must equal bit for bit: coarse
// ids, kept tetrahedra and the fallback's distances in maps, one walk
// whose start is the last tetrahedron found, rows accumulated in a
// sparse.Builder, and a fallback that evaluates a tetrahedron at every
// coarse vertex found that it touches. It returns R, the lost count, and
// false where the builder gave up on the level.
func referenceRestriction(m *mesh.Mesh, mis []int, tri *delaunay.Triangulation, eps float64) (*sparse.CSR, int, bool) {
	g := m.NodeGraph()
	coords := make([]geom.Vec3, len(mis))
	coarseOf := make(map[int]int, len(mis))
	for i, v := range mis {
		coords[i] = m.Coords[v]
		coarseOf[v] = i
	}
	tets := tri.Tets()
	nf, nc := m.NumVerts(), len(mis)
	rb := sparse.NewBuilder(nc, nf)
	lost := 0
	keptSet := make(map[[4]int]bool, len(tets))
	incident := make([][]int, nc)
	for i, tet := range tets {
		keptSet[tet] = true
		for _, cv := range tet {
			incident[cv] = append(incident[cv], i)
		}
	}
	nearbyElement := func(v int) ([4]int, [4]float64, bool) {
		dist := map[int]int{v: 0}
		queue := []int{v}
		var found []int
		foundDepth := -1
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if foundDepth >= 0 && dist[u] > foundDepth+1 {
				break
			}
			if j, ok := coarseOf[u]; ok {
				found = append(found, j)
				if foundDepth < 0 {
					foundDepth = dist[u]
				}
			}
			if foundDepth >= 0 && dist[u] >= foundDepth+1 {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if _, seen := dist[w]; !seen {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		best := -1
		bestMin := -1e300
		var bestW [4]float64
		for _, j := range found {
			for _, ti := range incident[j] {
				tet := tets[ti]
				bw, okB := geom.Barycentric(coords[tet[0]], coords[tet[1]], coords[tet[2]], coords[tet[3]], m.Coords[v])
				if !okB {
					continue
				}
				minw := bw[0]
				for _, x := range bw[1:] {
					if x < minw {
						minw = x
					}
				}
				if minw > bestMin {
					bestMin, best, bestW = minw, ti, bw
				}
			}
		}
		if best < 0 {
			return [4]int{}, [4]float64{}, false
		}
		return tets[best], bestW, true
	}
	lastHit := tri.Hint()
	for v := 0; v < nf; v++ {
		if j, isCoarse := coarseOf[v]; isCoarse {
			rb.Add(j, v, 1)
			continue
		}
		verts, w, at, ok := tri.Interpolate(m.Coords[v], lastHit)
		if at >= 0 {
			lastHit = at
		}
		if ok && !keptSet[verts] {
			ok = false
		}
		if ok {
			for _, wi := range w {
				if wi < -eps {
					ok = false
					break
				}
			}
		}
		if !ok {
			verts, w, ok = nearbyElement(v)
			if !ok {
				verts, w, ok = tri.Nearest(m.Coords[v])
				if !ok {
					return nil, 0, false
				}
			}
			lost++
		}
		for k := 0; k < 4; k++ {
			if w[k] == 0 {
				continue
			}
			rb.Add(verts[k], v, w[k])
		}
	}
	return sparse.ExpandBlocks(rb.Build(), 3), lost, true
}

// TestLostVerticesMatchReference: the fallback of section 4.8 evaluates
// each candidate tetrahedron once, where the reference's loop evaluates it
// at every coarse vertex found that it touches. On a coarse cube covering
// an eighth of the fine one, so that most fine vertices are lost and
// search among many shared tetrahedra, the rows are the reference's bit
// for bit: the first strict maximum wins in both.
func TestLostVerticesMatchReference(t *testing.T) {
	const n = 8
	m := cubeMesh(n)
	inner := func(x float64) bool { i := int(math.Round(n * x)); return i%2 == 0 && i <= n/2 }
	mis := m.VertsWhere(func(p geom.Vec3) bool { return inner(p.X) && inner(p.Y) && inner(p.Z) })
	coords := make([]geom.Vec3, len(mis))
	for i, v := range mis {
		coords[i] = m.Coords[v]
	}
	tri, err := delaunay.New(coords)
	if err != nil {
		t.Fatal(err)
	}
	r, lost, ok := newRestrictKernel(m.Coords, m.NodeGraph(), mis, tri, tri.Tets()).build()
	want, wantLost, wantOK := referenceRestriction(m, mis, tri, eps)
	if !ok || !wantOK {
		t.Fatalf("built %v, the reference %v", ok, wantOK)
	}
	if lost != wantLost || 2*lost < m.NumVerts() {
		t.Fatalf("%d lost vertices of %d, the reference %d", lost, m.NumVerts(), wantLost)
	}
	if err := sameCSR(r, want); err != nil {
		t.Fatal(err)
	}
}

// referenceCoarseMesh is the coarse tetrahedral mesh as it was built
// before the count arrays: materials counted in maps, majority by sorted
// keys.
func referenceCoarseMesh(m *mesh.Mesh, mis []int, tri *delaunay.Triangulation) *mesh.Mesh {
	counts := make([]map[int]int, m.NumVerts())
	for e, conn := range m.Elems {
		for _, v := range conn {
			if counts[v] == nil {
				counts[v] = map[int]int{}
			}
			counts[v][m.Mat[e]]++
		}
	}
	majority := func(count map[int]int) int {
		best, bestN := 0, -1
		for _, mat := range sortutil.Keys(count) {
			if n := count[mat]; n > bestN {
				best, bestN = mat, n
			}
		}
		return best
	}
	vertMat := make([]int, m.NumVerts())
	for v, c := range counts {
		vertMat[v] = majority(c)
	}
	cm := &mesh.Mesh{Type: mesh.Tet4}
	for _, v := range mis {
		cm.Coords = append(cm.Coords, m.Coords[v])
	}
	for _, tet := range tri.Tets() {
		cm.Elems = append(cm.Elems, []int{tet[0], tet[1], tet[2], tet[3]})
		count := map[int]int{}
		for _, cv := range tet {
			count[vertMat[mis[cv]]]++
		}
		cm.Mat = append(cm.Mat, majority(count))
	}
	return cm
}

// testHierarchies are the meshes the identity tests coarsen: a 13³-vertex
// cube and the small three-layer spheres problem.
func testHierarchies() map[string]*mesh.Mesh {
	return map[string]*mesh.Mesh{
		"cube": cubeMesh(12),
		"spheres": problems.NewSpheresConfig(problems.SpheresConfig{
			Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
		}).Mesh,
	}
}

// sameCSR returns the first difference between two matrices, values
// compared by their bits, or nil.
func sameCSR(got, want *sparse.CSR) error {
	if got.NRows != want.NRows || got.NCols != want.NCols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		return fmt.Errorf("pattern %dx%d, %d entries; the reference's %dx%d, %d entries, or other ones",
			got.NRows, got.NCols, len(got.ColIdx), want.NRows, want.NCols, len(want.ColIdx))
	}
	for k := range got.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("entry %d (column %d) is %v, the reference's %v", k, got.ColIdx[k], got.Val[k], want.Val[k])
		}
	}
	return nil
}

// sameMesh returns the first difference between two meshes, or nil.
func sameMesh(got, want *mesh.Mesh) error {
	if got.Type != want.Type || !slices.Equal(got.Coords, want.Coords) || !slices.Equal(got.Mat, want.Mat) ||
		!slices.EqualFunc(got.Elems, want.Elems, slices.Equal[[]int]) {
		return fmt.Errorf("%d vertices, %d elements; the reference's %d, %d, or other ones",
			got.NumVerts(), got.NumElems(), want.NumVerts(), want.NumElems())
	}
	return nil
}

// TestHierarchyIndependentOfProcs coarsens each test mesh at GOMAXPROCS 1,
// 2 and 4. Every grid's mesh, restriction (bit for bit) and lost count must
// equal what the map-built reference derives from its parent and its
// vertex set, and the vertex sets and classifications must be the same at
// every core count.
func TestHierarchyIndependentOfProcs(t *testing.T) {
	meshes := testHierarchies()
	for _, name := range sortutil.Keys(meshes) {
		var base *Hierarchy
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			h, err := Coarsen(meshes[name], Options{})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = h
				if h.NumLevels() < 3 {
					t.Fatalf("%s: %d grids, want at least 3", name, h.NumLevels())
				}
			}
			if h.NumLevels() != base.NumLevels() {
				t.Fatalf("%s, GOMAXPROCS %d: %d grids, %d on one core", name, procs, h.NumLevels(), base.NumLevels())
			}
			for l := 1; l < h.NumLevels(); l++ {
				if err := checkGrid(h.Grids[l-1], h.Grids[l], base.Grids[l]); err != nil {
					t.Fatalf("%s, GOMAXPROCS %d, grid %d: %v", name, procs, l, err)
				}
			}
		}
	}
}

// checkGrid compares grid gr, built from parent, with the reference and
// with base, the same grid built on one core.
func checkGrid(parent, gr, base *Grid) error {
	if !slices.Equal(gr.Verts, base.Verts) {
		return fmt.Errorf("%d vertices, %d on one core, or other ones", len(gr.Verts), len(base.Verts))
	}
	if !slices.Equal(gr.Class.Rank, base.Class.Rank) || !slices.EqualFunc(gr.Class.Faces, base.Class.Faces, slices.Equal[[]int]) {
		return fmt.Errorf("classification differs from the one-core grid's")
	}
	coords := make([]geom.Vec3, len(gr.Verts))
	for i, v := range gr.Verts {
		coords[i] = parent.Mesh.Coords[v]
	}
	tri, err := delaunay.New(coords)
	if err != nil {
		return err
	}
	r, lost, ok := referenceRestriction(parent.Mesh, gr.Verts, tri, eps)
	if !ok {
		return fmt.Errorf("the reference gives up on a grid the kernel built")
	}
	if gr.Lost != lost {
		return fmt.Errorf("%d lost vertices, the reference %d", gr.Lost, lost)
	}
	if err := sameCSR(gr.R, r); err != nil {
		return fmt.Errorf("R: %v", err)
	}
	if err := sameMesh(gr.Mesh, referenceCoarseMesh(parent.Mesh, gr.Verts, tri)); err != nil {
		return fmt.Errorf("mesh: %v", err)
	}
	return nil
}

// TestWalkStartIndependence is what lets each lane keep its own walk hint:
// on every grid of both test hierarchies, the tetrahedron located for a
// fine vertex the restriction walks for does not depend on where the walk
// starts. Each is located by the sequential walk (start: the last one
// found), by three lanes dealt chunks of seven vertices in turn (start:
// the lane's last), and from three seeded random live tetrahedra.
func TestWalkStartIndependence(t *testing.T) {
	meshes := testHierarchies()
	for _, name := range sortutil.Keys(meshes) {
		h, err := Coarsen(meshes[name], Options{})
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l < h.NumLevels(); l++ {
			fine, mis := h.Grids[l-1].Mesh.Coords, h.Grids[l].Verts
			coords := make([]geom.Vec3, len(mis))
			isCoarse := make([]bool, len(fine))
			for i, v := range mis {
				coords[i] = fine[v]
				isCoarse[v] = true
			}
			tri, err := delaunay.New(coords)
			if err != nil {
				t.Fatal(err)
			}
			var walked []int
			for v := range fine {
				if !isCoarse[v] {
					walked = append(walked, v)
				}
			}
			locate := func(hint *int, v int) int {
				at := tri.Locate(fine[v], *hint)
				if at >= 0 {
					*hint = at
				}
				return at
			}
			seq := make([]int, len(walked))
			hint := tri.Hint()
			for i, v := range walked {
				seq[i] = locate(&hint, v)
			}
			lanes := []int{tri.Hint(), tri.Hint(), tri.Hint()}
			for i, v := range walked {
				if at := locate(&lanes[i/7%3], v); at != seq[i] {
					t.Fatalf("%s grid %d vertex %d: lane %d finds tet %d, the sequential walk %d", name, l, v, i/7%3, at, seq[i])
				}
			}
			rng := rand.New(rand.NewSource(int64(l)))
			for k := 0; k < 3; k++ {
				for i, v := range walked {
					start := tri.Locate(coords[rng.Intn(len(coords))], -1)
					if at := tri.Locate(fine[v], start); at != seq[i] {
						t.Fatalf("%s grid %d vertex %d: from tet %d the walk finds tet %d, the sequential walk %d", name, l, v, start, at, seq[i])
					}
				}
			}
		}
	}
}
