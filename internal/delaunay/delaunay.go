// Package delaunay implements the incremental Bowyer-Watson 3D Delaunay
// tetrahedralization used to remesh the coarse vertex sets (section 4.8):
// a bounding box is placed around the points and meshed, the points are
// inserted one at a time, and the caller removes the tetrahedra attached to
// the bounding box afterwards — fine-grid vertices falling in removed
// tetrahedra become the paper's "lost" vertices and are interpolated from a
// nearby element.
//
// Exact predicates are replaced by float64 predicates evaluated on
// deterministically perturbed copies of the points (symbolic perturbation),
// which resolves the massive cosphericality of structured point sets; see
// the geom package.
package delaunay

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"prometheus/internal/geom"
)

// ErrDegenerate is returned when the point set cannot be tetrahedralized
// (all points coincident).
var ErrDegenerate = errors.New("delaunay: degenerate point set")

// tet is one tetrahedron of the triangulation. Vertices are indices into
// the internal point array (user points first, then the 8 box corners).
// adj[i] is the tetrahedron sharing the face opposite vertex i, or -1.
type tet struct {
	v     [4]int
	adj   [4]int
	alive bool
}

// Triangulation is an incremental Delaunay tetrahedralization.
type Triangulation struct {
	pts     []geom.Vec3 // user points then 8 box corners
	ppts    []geom.Vec3 // perturbed copies used by all predicates
	nUser   int
	tets    []tet
	free    []int // recycled tet slots
	lastHit int   // walk start of the next insertion
	ins     insertScratch
}

// insertScratch is what one insertion works in, kept from one point to the
// next and dropped when New returns. A tet slot is in the cavity when
// inCav holds the cavity's generation for it, and reached from the start
// tet when reached holds the reach pass's; every set takes a generation of
// its own, so nothing is cleared between sets.
type insertScratch struct {
	inCav, reached []uint32
	gen            uint32
	stack, cavity  []int
	boundary       []boundaryFace
	// The faces through the inserted point that one new tet has and the
	// new tet across has not yet claimed: face pendingAt[i].f of tet
	// pendingAt[i].t, with the two vertices besides the point packed in
	// pendingKey[i] (edgeKey).
	pendingKey []uint64
	pendingAt  []faceRef
}

// boundaryFace is a cavity boundary face, outward from its cavity tet,
// with the tet across it (-1 on the hull).
type boundaryFace struct {
	verts [3]int
	ext   int
}

// faceRef names face f of tet t.
type faceRef struct{ t, f int }

// edgeKey packs two vertex ids in ascending order.
func edgeKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// next returns a generation no set has used since the stamps were last
// cleared.
func (s *insertScratch) next() uint32 {
	s.gen++
	return s.gen
}

// faceOf returns the vertices of face i (opposite vertex i) of t, oriented
// so that the face normal points away from vertex i for a positive-volume
// tetrahedron.
func (t *tet) faceOf(i int) [3]int {
	// For tet (v0,v1,v2,v3) with positive volume, the outward-oriented
	// faces are: opp 0: (1,3,2), opp 1: (0,2,3), opp 2: (0,3,1), opp 3: (0,1,2).
	switch i {
	case 0:
		return [3]int{t.v[1], t.v[3], t.v[2]}
	case 1:
		return [3]int{t.v[0], t.v[2], t.v[3]}
	case 2:
		return [3]int{t.v[0], t.v[3], t.v[1]}
	default:
		return [3]int{t.v[0], t.v[1], t.v[2]}
	}
}

// New builds the Delaunay tetrahedralization of pts. Points are perturbed
// symbolically for the predicates only; reported tetrahedra reference the
// original indices.
func New(pts []geom.Vec3) (*Triangulation, error) {
	if len(pts) == 0 {
		return nil, ErrDegenerate
	}
	tr := boxed(pts)
	for i := 0; i < tr.nUser; i++ {
		if err := tr.insert(i); err != nil {
			return nil, fmt.Errorf("delaunay: inserting point %d: %w", i, err)
		}
	}
	tr.ins = insertScratch{}
	return tr, nil
}

// boxed returns the triangulation of the bounding box of pts, with no
// point inserted yet.
func boxed(pts []geom.Vec3) *Triangulation {
	box := geom.NewAABB(pts)
	diag := box.Diagonal()
	if diag == 0 {
		diag = 1
	}
	box = box.Expand(0.75*diag + 1e-9)

	tr := &Triangulation{nUser: len(pts)}
	tr.pts = append(tr.pts, pts...)
	// Box corners.
	c := [8]geom.Vec3{
		{X: box.Min.X, Y: box.Min.Y, Z: box.Min.Z},
		{X: box.Max.X, Y: box.Min.Y, Z: box.Min.Z},
		{X: box.Max.X, Y: box.Max.Y, Z: box.Min.Z},
		{X: box.Min.X, Y: box.Max.Y, Z: box.Min.Z},
		{X: box.Min.X, Y: box.Min.Y, Z: box.Max.Z},
		{X: box.Max.X, Y: box.Min.Y, Z: box.Max.Z},
		{X: box.Max.X, Y: box.Max.Y, Z: box.Max.Z},
		{X: box.Min.X, Y: box.Max.Y, Z: box.Max.Z},
	}
	tr.pts = append(tr.pts, c[:]...)
	scale := 1e-7 * diag
	tr.ppts = make([]geom.Vec3, len(tr.pts))
	for i, p := range tr.pts {
		if i < tr.nUser {
			tr.ppts[i] = p.Add(geom.Perturb(i+1, scale))
		} else {
			tr.ppts[i] = p // box corners stay exact (far from everything)
		}
	}

	// Split the box into 6 tetrahedra around the diagonal 0-6.
	n := tr.nUser
	hexTets := [6][4]int{
		{0, 1, 2, 6}, {0, 2, 3, 6}, {0, 3, 7, 6},
		{0, 7, 4, 6}, {0, 4, 5, 6}, {0, 5, 1, 6},
	}
	for _, ht := range hexTets {
		v := [4]int{n + ht[0], n + ht[1], n + ht[2], n + ht[3]}
		if geom.TetVolume(tr.ppts[v[0]], tr.ppts[v[1]], tr.ppts[v[2]], tr.ppts[v[3]]) < 0 {
			v[0], v[1] = v[1], v[0]
		}
		tr.addTet(v)
	}
	tr.rebuildAdjacency()
	return tr
}

// addTet appends (or recycles) a tet slot and returns its index.
func (tr *Triangulation) addTet(v [4]int) int {
	t := tet{v: v, adj: [4]int{-1, -1, -1, -1}, alive: true}
	if len(tr.free) > 0 {
		id := tr.free[len(tr.free)-1]
		tr.free = tr.free[:len(tr.free)-1]
		tr.tets[id] = t
		return id
	}
	tr.tets = append(tr.tets, t)
	return len(tr.tets) - 1
}

type faceKey [3]int

func sortedFace(f [3]int) faceKey {
	a, b, c := f[0], f[1], f[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return faceKey{a, b, c}
}

// rebuildAdjacency recomputes all adjacency links (used once at startup).
func (tr *Triangulation) rebuildAdjacency() {
	type ref struct{ t, f int }
	m := make(map[faceKey]ref)
	for ti := range tr.tets {
		if !tr.tets[ti].alive {
			continue
		}
		for f := 0; f < 4; f++ {
			k := sortedFace(tr.tets[ti].faceOf(f))
			if r, ok := m[k]; ok {
				tr.tets[ti].adj[f] = r.t
				tr.tets[r.t].adj[r.f] = ti
			} else {
				m[k] = ref{ti, f}
			}
		}
	}
}

// orientP evaluates Orient3D on the perturbed points; positive means the
// tetrahedron (a,b,c,d) has positive volume.
func (tr *Triangulation) orientP(a, b, c, d int) float64 {
	// TetVolume > 0 corresponds to Orient3D < 0 (Shewchuk sign), so flip.
	return -geom.Orient3D(tr.ppts[a], tr.ppts[b], tr.ppts[c], tr.ppts[d])
}

// inSphereP reports whether point p lies inside the circumsphere of the
// (positive-volume) tet t, using the perturbed coordinates.
func (tr *Triangulation) inSphereP(t *tet, p int) bool {
	s := geom.InSphere(tr.ppts[t.v[0]], tr.ppts[t.v[1]], tr.ppts[t.v[2]], tr.ppts[t.v[3]], tr.ppts[p])
	// Our tets have TetVolume > 0, i.e. Shewchuk orientation negative, so
	// the InSphere sign is flipped.
	return -s > 0
}

// Locate walks from tetrahedron hint to the live tetrahedron containing q,
// judged by the perturbed coordinates of its vertices, and returns its
// slot, or -1 when q lies outside the bounding box. Any hint is accepted:
// one that names no live slot starts the walk at the first live one. A walk
// that cycles (degenerate input) falls back to a scan of every slot in
// order. Locate writes nothing, so concurrent calls are safe; a caller
// locating a run of nearby points passes each result as the next hint.
func (tr *Triangulation) Locate(q geom.Vec3, hint int) int {
	cur := hint
	if cur < 0 || cur >= len(tr.tets) || !tr.tets[cur].alive {
		cur = tr.anyAlive()
		if cur < 0 {
			return -1
		}
	}
	// q is strictly outside face f (oriented outward) when the volume of
	// (face, q) is negative.
	outside := func(t *tet, f int) bool {
		fc := t.faceOf(f)
		return -geom.Orient3D(tr.ppts[fc[0]], tr.ppts[fc[1]], tr.ppts[fc[2]], q) < 0
	}
	maxSteps := 4 * (len(tr.tets) + 16)
	for step := 0; step < maxSteps; step++ {
		t := &tr.tets[cur]
		moved := false
		for f := 0; f < 4; f++ {
			if outside(t, f) {
				nb := t.adj[f]
				if nb < 0 || !tr.tets[nb].alive {
					return -1 // outside hull: cannot happen inside the box
				}
				cur = nb
				moved = true
				break
			}
		}
		if !moved {
			return cur
		}
	}
	// Walk cycled (degenerate); fall back to a linear scan.
	for ti := range tr.tets {
		t := &tr.tets[ti]
		if !t.alive {
			continue
		}
		inside := true
		for f := 0; f < 4; f++ {
			if outside(t, f) {
				inside = false
				break
			}
		}
		if inside {
			return ti
		}
	}
	return -1
}

// Hint returns a tetrahedron the last insertion created: the walk start
// New leaves behind, near the last points inserted.
func (tr *Triangulation) Hint() int { return tr.lastHit }

func (tr *Triangulation) anyAlive() int {
	for i := range tr.tets {
		if tr.tets[i].alive {
			return i
		}
	}
	return -1
}

// insert adds user point p via Bowyer-Watson.
func (tr *Triangulation) insert(p int) error {
	start := tr.Locate(tr.ppts[p], tr.lastHit)
	if start < 0 {
		return errors.New("containing tetrahedron not found")
	}
	s := &tr.ins
	if n := len(tr.tets); len(s.inCav) < n {
		s.inCav = append(s.inCav, make([]uint32, n-len(s.inCav))...)
		s.reached = append(s.reached, make([]uint32, n-len(s.reached))...)
	}
	if s.gen > math.MaxUint32/2 {
		clear(s.inCav)
		clear(s.reached)
		s.gen = 0
	}
	// Cavity: depth-first search over tets whose circumsphere contains p,
	// listed in the order they leave the stack.
	cav := s.next()
	s.inCav[start] = cav
	stack := append(s.stack[:0], start)
	cavity := s.cavity[:0]
	for len(stack) > 0 {
		ti := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cavity = append(cavity, ti)
		for f := 0; f < 4; f++ {
			nb := tr.tets[ti].adj[f]
			if nb < 0 || s.inCav[nb] == cav || !tr.tets[nb].alive {
				continue
			}
			if tr.inSphereP(&tr.tets[nb], p) {
				s.inCav[nb] = cav
				stack = append(stack, nb)
			}
		}
	}
	// Boundary faces of the cavity with their external neighbours. Every
	// boundary face (oriented outward from its cavity tet) must see p on
	// its inner side — the cavity must be star-shaped from p. Inconsistent
	// predicate roundings can violate this; the standard repair is to
	// shrink the cavity by evicting the tetrahedra owning offending faces
	// and re-deriving the boundary, which always terminates because the
	// single containing tetrahedron is star-shaped by construction.
	boundary := s.boundary[:0]
	for repair := 0; ; repair++ {
		// Keep only the cavity component still face-connected to start
		// (evictions can strand tetrahedra, which would create an annulus).
		reach := s.next()
		s.reached[start] = reach
		nReach := 1
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			ti := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for f := 0; f < 4; f++ {
				nb := tr.tets[ti].adj[f]
				if nb >= 0 && s.inCav[nb] == cav && s.reached[nb] != reach {
					s.reached[nb] = reach
					nReach++
					stack = append(stack, nb)
				}
			}
		}
		if nReach != len(cavity) {
			// The reached set becomes the cavity, listed in ascending slot
			// order so the construction is deterministic.
			kept := cavity[:0]
			for _, ti := range cavity {
				if s.reached[ti] == reach {
					kept = append(kept, ti)
				}
			}
			cavity = kept
			slices.Sort(cavity)
			s.inCav, s.reached = s.reached, s.inCav
			cav = reach
		}
		boundary = boundary[:0]
		evict := -1
		for _, ti := range cavity {
			for f := 0; f < 4; f++ {
				nb := tr.tets[ti].adj[f]
				if nb >= 0 && s.inCav[nb] == cav {
					continue
				}
				fc := tr.tets[ti].faceOf(f)
				if tr.orientP(fc[0], fc[1], fc[2], p) <= 0 && ti != start {
					evict = ti
					break
				}
				boundary = append(boundary, boundaryFace{fc, nb})
			}
			if evict >= 0 {
				break
			}
		}
		if evict < 0 {
			break
		}
		if repair > len(tr.tets) {
			return errors.New("cavity repair did not terminate")
		}
		s.inCav[evict] = 0
		for k, ti := range cavity {
			if ti == evict {
				cavity = append(cavity[:k], cavity[k+1:]...)
				break
			}
		}
	}
	s.stack, s.cavity, s.boundary = stack, cavity, boundary
	// After repair the start tet's own faces may still be violated only in
	// truly degenerate inputs.
	for _, bf := range boundary {
		if tr.orientP(bf.verts[0], bf.verts[1], bf.verts[2], p) <= 0 {
			return errors.New("cavity not star-shaped (degenerate input)")
		}
	}
	// Remove cavity tets.
	for _, ti := range cavity {
		tr.tets[ti].alive = false
		tr.free = append(tr.free, ti)
	}
	// Create a new tet per boundary face: (face, p) has positive volume
	// because p is on the inner side of the outward-oriented face.
	first := -1
	keys, at := s.pendingKey[:0], s.pendingAt[:0]
	for _, bf := range boundary {
		v := [4]int{bf.verts[0], bf.verts[1], bf.verts[2], p}
		nt := tr.addTet(v)
		if first < 0 {
			first = nt
		}
		// Link across the boundary face: in the new tet, p is vertex 3, so
		// the face opposite p (face 3) is the boundary face.
		tr.tets[nt].adj[3] = bf.ext
		if bf.ext >= 0 {
			// Find which face of ext matches.
			k := sortedFace(bf.verts)
			for f := 0; f < 4; f++ {
				if sortedFace(tr.tets[bf.ext].faceOf(f)) == k {
					tr.tets[bf.ext].adj[f] = nt
					break
				}
			}
		}
		// Internal faces (those containing p, identified by their other
		// two vertices): the first new tet to have one lists it, the
		// second links the pair.
		for f := 0; f < 3; f++ {
			k := edgeKey(v[(f+1)%3], v[(f+2)%3])
			i := slices.Index(keys, k)
			if i < 0 {
				keys = append(keys, k)
				at = append(at, faceRef{nt, f})
				continue
			}
			other := at[i]
			tr.tets[other.t].adj[other.f] = nt
			tr.tets[nt].adj[f] = other.t
		}
	}
	s.pendingKey, s.pendingAt = keys, at
	tr.lastHit = first
	return nil
}

// Tets returns the alive tetrahedra that do not touch the bounding box
// corners (the paper removes the tetrahedra attached to the bounding box
// vertices). Vertex indices refer to the user's point array.
func (tr *Triangulation) Tets() [][4]int {
	var out [][4]int
	for i := range tr.tets {
		t := &tr.tets[i]
		if !t.alive {
			continue
		}
		boxTouch := false
		for _, v := range t.v {
			if v >= tr.nUser {
				boxTouch = true
				break
			}
		}
		if !boxTouch {
			out = append(out, t.v)
		}
	}
	return out
}

// AllTets returns every alive tetrahedron including those attached to the
// bounding box (used by tests).
func (tr *Triangulation) AllTets() [][4]int {
	var out [][4]int
	for i := range tr.tets {
		if tr.tets[i].alive {
			out = append(out, tr.tets[i].v)
		}
	}
	return out
}

// NumUserPoints returns the number of points supplied to New.
func (tr *Triangulation) NumUserPoints() int { return tr.nUser }

// Point returns user point i's original coordinates.
func (tr *Triangulation) Point(i int) geom.Vec3 { return tr.pts[i] }

// IsBoxVertex reports whether vertex id v is a bounding-box corner.
func (tr *Triangulation) IsBoxVertex(v int) bool { return v >= tr.nUser }
