package core

import (
	"math"

	"prometheus/internal/delaunay"
	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/mesh"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// restrictWork is the serial cost of one fine vertex's row in the
// multiply-adds pool.Grain counts, taken low: a row is a walk of a few
// steps of four orientation tests and the barycentric weights, more for a
// lost vertex, a few microseconds on the benchmark's hierarchies, so a
// level of 60 fine vertices already pays for a dispatch.
const restrictWork = 1000

// Row states of RestrictKernel, one byte per fine vertex: the entry count
// in the low bits, and flags.
const (
	rowCount  = 7      // mask of the entry count, 1..4
	rowLost   = 1 << 5 // interpolated through the lost-vertex fallback
	rowFailed = 1 << 6 // no tetrahedron at all: the coarse set has collapsed
	rowDone   = 1 << 7 // the item has run
)

// RestrictKernel builds the restriction rows of section 4.8, one fine
// vertex per item. A coarse vertex restricts to itself with weight 1. Any
// other fine vertex takes the linear shape functions of the coarse
// tetrahedron containing it; when that tetrahedron is box-attached or one
// of its weights is below -eps, the vertex is lost and takes those of the
// least-violating tetrahedron around the coarse vertices nearest it in the
// fine graph, and failing that of the least-violating tetrahedron
// anywhere. Item v writes its four (coarse vertex, weight) slots and its
// state byte, nothing else. Zero weights are not stored; any other weight
// w is stored as is, which is bit for bit the 0+w a sparse.Builder
// accumulated. Each lane keeps its own walk hint and the fallback search's
// scratch, so items share nothing they write, and a row's bits do not
// depend on the lane or the window: which tetrahedron a walk finds does
// not depend on where it starts (TestWalkStartIndependence).
type RestrictKernel struct {
	fine     []geom.Vec3 // parent vertex coordinates
	g        *graph.Graph
	coarseOf []int32 // parent vertex → coarse vertex, -1 for none
	tri      *delaunay.Triangulation
	tets     [][4]int
	// The tetrahedra incident to coarse vertex j are
	// inc[incPtr[j]:incPtr[j+1]], in ascending order.
	incPtr, inc []int32

	coarse []int32
	weight []float64
	state  []uint8
	lanes  [pool.Lanes]restrictLane
}

// restrictLane is one lane's scratch: the walk hint, and the fallback's
// breadth-first search over the fine graph and its candidate tetrahedra,
// whose visited marks are stamped so no search clears them.
type restrictLane struct {
	hint         int
	seen         []int32 // per fine vertex
	tried        []int32 // per tetrahedron
	stamp        int32
	queue, depth []int32
	found        []int32
}

// newRestrictKernel returns the kernel restricting the fine vertices at
// fine (node graph g) to the coarse set mis, triangulated as tri, whose
// non-box tetrahedra are tets.
func newRestrictKernel(fine []geom.Vec3, g *graph.Graph, mis []int, tri *delaunay.Triangulation, tets [][4]int) *RestrictKernel {
	nf, nc := len(fine), len(mis)
	k := &RestrictKernel{
		fine: fine, g: g, tri: tri, tets: tets,
		coarseOf: make([]int32, nf),
		incPtr:   make([]int32, nc+1),
		inc:      make([]int32, 4*len(tets)),
		coarse:   make([]int32, 4*nf),
		weight:   make([]float64, 4*nf),
		state:    make([]uint8, nf),
	}
	for v := range k.coarseOf {
		k.coarseOf[v] = -1
	}
	for j, v := range mis {
		k.coarseOf[v] = int32(j)
	}
	for _, tet := range tets {
		for _, cv := range tet {
			k.incPtr[cv+1]++
		}
	}
	for j := 0; j < nc; j++ {
		k.incPtr[j+1] += k.incPtr[j]
	}
	next := make([]int32, nc)
	copy(next, k.incPtr)
	for ti, tet := range tets {
		for _, cv := range tet {
			k.inc[next[cv]] = int32(ti)
			next[cv]++
		}
	}
	for w := range k.lanes {
		k.lanes[w].hint = tri.Hint()
	}
	return k
}

// RestrictionKernel returns the kernel coarsenOnce runs to restrict m to
// its vertex subset mis, over m.NumVerts() items, for TestKernelContract.
func RestrictionKernel(m *mesh.Mesh, mis []int) (*RestrictKernel, error) {
	coords := make([]geom.Vec3, len(mis))
	for i, v := range mis {
		coords[i] = m.Coords[v]
	}
	tri, err := delaunay.New(coords)
	if err != nil {
		return nil, err
	}
	return newRestrictKernel(m.Coords, m.NodeGraph(), mis, tri, tri.Tets()), nil
}

// Items implements pool.ItemKernel.
func (k *RestrictKernel) Items(w, lo, hi int) {
	ln := &k.lanes[w]
	for v := lo; v < hi; v++ {
		k.row(ln, v)
	}
}

// Row returns the coarse vertices and weights item v wrote, and whether it
// took the lost-vertex fallback; ok is false until the item has run. A row
// with no entries is a fine vertex no tetrahedron interpolates.
func (k *RestrictKernel) Row(v int) (coarse []int32, w []float64, lost, ok bool) {
	st := k.state[v]
	n := int(st & rowCount)
	return k.coarse[4*v : 4*v+n], k.weight[4*v : 4*v+n], st&rowLost != 0, st&rowDone != 0
}

// row writes fine vertex v's row on lane ln.
func (k *RestrictKernel) row(ln *restrictLane, v int) {
	if j := k.coarseOf[v]; j >= 0 {
		k.coarse[4*v], k.weight[4*v] = j, 1
		k.state[v] = rowDone | 1
		return
	}
	q := k.fine[v]
	verts, w, at, ok := k.tri.Interpolate(q, ln.hint)
	if at >= 0 {
		ln.hint = at
	}
	if ok {
		for _, wi := range w {
			if wi < -eps {
				ok = false
				break
			}
		}
	}
	st := uint8(rowDone)
	if !ok {
		verts, w, ok = k.nearby(ln, v)
		if !ok {
			verts, w, ok = k.tri.Nearest(q)
			if !ok {
				k.state[v] = rowDone | rowFailed
				return
			}
		}
		st |= rowLost
	}
	n := 0
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		k.coarse[4*v+n], k.weight[4*v+n] = int32(verts[i]), wi
		n++
	}
	k.state[v] = st | uint8(n)
}

// nearby is the "find a nearby element" fallback of section 4.8: a
// breadth-first search of the fine graph from v, to the first layer that
// holds coarse vertices and one layer beyond, then the least-violating
// tetrahedron incident to the coarse vertices found, in the order found.
func (k *RestrictKernel) nearby(ln *restrictLane, v int) ([4]int, [4]float64, bool) {
	if ln.seen == nil {
		ln.seen = make([]int32, len(k.fine))
		ln.tried = make([]int32, len(k.tets))
	}
	if ln.stamp == math.MaxInt32 {
		clear(ln.seen)
		clear(ln.tried)
		ln.stamp = 0
	}
	ln.stamp++
	s := ln.stamp
	ln.seen[v] = s
	queue := append(ln.queue[:0], int32(v))
	depth := append(ln.depth[:0], 0)
	found := ln.found[:0]
	foundDepth := int32(-1)
	for qi := 0; qi < len(queue); qi++ {
		u, d := queue[qi], depth[qi]
		if foundDepth >= 0 && d > foundDepth+1 {
			break
		}
		if j := k.coarseOf[u]; j >= 0 {
			found = append(found, j)
			if foundDepth < 0 {
				foundDepth = d
			}
		}
		if foundDepth >= 0 && d >= foundDepth+1 {
			continue
		}
		for _, x := range k.g.Neighbors(int(u)) {
			if ln.seen[x] != s {
				ln.seen[x] = s
				queue = append(queue, int32(x))
				depth = append(depth, d+1)
			}
		}
	}
	ln.queue, ln.depth, ln.found = queue, depth, found

	// A tetrahedron incident to several coarse vertices found is evaluated
	// at its first listing only: a repeat has the same weights, so it could
	// not be a strict maximum there.
	best := -1
	bestMin := -1e300
	var bestW [4]float64
	for _, j := range found {
		for _, ti := range k.inc[k.incPtr[j]:k.incPtr[j+1]] {
			if ln.tried[ti] == s {
				continue
			}
			ln.tried[ti] = s
			tet := k.tets[ti]
			bw, okB := geom.Barycentric(k.tri.Point(tet[0]), k.tri.Point(tet[1]), k.tri.Point(tet[2]), k.tri.Point(tet[3]), k.fine[v])
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
				bestMin, best, bestW = minw, int(ti), bw
			}
		}
	}
	if best < 0 {
		return [4]int{}, [4]float64{}, false
	}
	return k.tets[best], bestW, true
}

// build runs every item on the shared worker set, then writes the node
// restriction's rows in ascending fine-vertex order — a count pass and a
// fill pass — and expands it to 3×3 blocks. It returns the number of lost
// vertices, and false when some fine vertex has no tetrahedron at all.
func (k *RestrictKernel) build() (*sparse.CSR, int, bool) {
	nf, nc := len(k.fine), len(k.incPtr)-1
	pool.RunItems(k, nf, 1, restrictWork*nf)
	lost := 0
	rowPtr := make([]int, nc+1)
	for v := 0; v < nf; v++ {
		coarse, _, isLost, _ := k.Row(v)
		if k.state[v]&rowFailed != 0 {
			return nil, 0, false
		}
		if isLost {
			lost++
		}
		for _, j := range coarse {
			rowPtr[j+1]++
		}
	}
	for j := 0; j < nc; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	colIdx := make([]int, rowPtr[nc])
	val := make([]float64, rowPtr[nc])
	next := make([]int, nc)
	copy(next, rowPtr)
	for v := 0; v < nf; v++ {
		coarse, w, _, _ := k.Row(v)
		for i, j := range coarse {
			colIdx[next[j]], val[next[j]] = v, w[i]
			next[j]++
		}
	}
	r := &sparse.CSR{NRows: nc, NCols: nf, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	return sparse.ExpandBlocks(r, 3), lost, true
}
