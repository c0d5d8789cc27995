package delaunay

import (
	"prometheus/internal/geom"
)

// Interpolate locates query point q, walking from tetrahedron hint (see
// Locate), and returns the containing tetrahedron's user-point vertex ids
// with the barycentric weights of q (computed from the original,
// unperturbed coordinates), and the slot it found, which is -1 only when
// the walk found none. ok is false when the containing tetrahedron touches
// the bounding box or cannot be found; such query points are the paper's
// "lost" vertices (section 4.8) and must be interpolated from a nearby
// element via Nearest.
func (tr *Triangulation) Interpolate(q geom.Vec3, hint int) (verts [4]int, w [4]float64, at int, ok bool) {
	ti := tr.Locate(q, hint)
	if ti < 0 {
		return verts, w, ti, false
	}
	t := &tr.tets[ti]
	for _, v := range t.v {
		if v >= tr.nUser {
			return verts, w, ti, false // box-attached: lost
		}
	}
	w, okB := geom.Barycentric(tr.pts[t.v[0]], tr.pts[t.v[1]], tr.pts[t.v[2]], tr.pts[t.v[3]], q)
	if !okB {
		return verts, w, ti, false
	}
	return t.v, w, ti, true
}

// Nearest returns, among the non-box tetrahedra, the one whose barycentric
// coordinates of q have the largest minimum (the least-violating element),
// with those weights. It is the "find a nearby element to use for the
// interpolants" fallback of section 4.8; the weights may be slightly
// negative. ok is false only when no non-box tetrahedron exists.
func (tr *Triangulation) Nearest(q geom.Vec3) (verts [4]int, w [4]float64, ok bool) {
	best := -1
	bestMin := -1e300
	var bestW [4]float64
	for ti := range tr.tets {
		t := &tr.tets[ti]
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
		if boxTouch {
			continue
		}
		bw, okB := geom.Barycentric(tr.pts[t.v[0]], tr.pts[t.v[1]], tr.pts[t.v[2]], tr.pts[t.v[3]], q)
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
			bestMin = minw
			best = ti
			bestW = bw
		}
	}
	if best < 0 {
		return verts, w, false
	}
	return tr.tets[best].v, bestW, true
}
