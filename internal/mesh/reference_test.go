package mesh

import (
	"fmt"
	"math"
	"testing"

	"prometheus/internal/geom"
)

// referenceElemFacets is the per-element facet list the bucketed
// extraction replaced: one fresh slice per facet.
func referenceElemFacets(m *Mesh, e int) [][]int {
	conn := m.Elems[e]
	switch m.Type {
	case Hex8:
		out := make([][]int, 6)
		for f, loc := range hexFaces {
			out[f] = []int{conn[loc[0]], conn[loc[1]], conn[loc[2]], conn[loc[3]]}
		}
		return out
	case Hex20:
		out := make([][]int, 6)
		for f, loc := range hex20Faces {
			fv := make([]int, 8)
			for i, l := range loc {
				fv[i] = conn[l]
			}
			out[f] = fv
		}
		return out
	default:
		out := make([][]int, 4)
		for f, loc := range tetFaces {
			out[f] = []int{conn[loc[0]], conn[loc[1]], conn[loc[2]]}
		}
		return out
	}
}

// referenceBoundaryFacets is BoundaryFacets as a map from facet key to
// its sides, walked in first-seen key order.
func referenceBoundaryFacets(m *Mesh) []Facet {
	type side struct {
		elem  int
		verts []int
	}
	sides := make(map[facetKey][]side)
	var order []facetKey
	for e := range m.Elems {
		for _, fv := range referenceElemFacets(m, e) {
			k := keyOf(fv)
			if _, ok := sides[k]; !ok {
				order = append(order, k)
			}
			sides[k] = append(sides[k], side{elem: e, verts: fv})
		}
	}
	var out []Facet
	for _, k := range order {
		ss := sides[k]
		keep := false
		switch len(ss) {
		case 1:
			keep = true
		case 2:
			keep = m.Mat[ss[0].elem] != m.Mat[ss[1].elem]
		default:
			keep = true
		}
		if !keep {
			continue
		}
		for _, s := range ss {
			out = append(out, Facet{Verts: s.verts, Elem: s.elem, Mat: m.Mat[s.elem], Normal: m.facetNormal(s.verts)})
		}
	}
	return out
}

// layered gives an element the material of its centroid's band in x + 2z,
// so every mesh below has interfaces in two directions.
func layered(c geom.Vec3) int { return int(math.Floor(1.5*c.X+3*c.Z)) % 3 }

// referenceMeshes are the equivalence tests' inputs: hex8, hex20 and tet
// meshes with material interfaces, one with every element listed twice
// (each facet then has two or four sides) and an empty mesh.
func referenceMeshes() map[string]*Mesh {
	hex := StructuredHex(4, 3, 3, 1, 1, 1, layered)
	dup := StructuredHex(2, 2, 2, 1, 1, 1, layered)
	dup.Elems = append(dup.Elems, dup.Elems...)
	dup.Mat = append(dup.Mat, dup.Mat...)
	dup.Mat[0] = 2
	return map[string]*Mesh{
		"hex8":   hex,
		"hex20":  StructuredHex20(3, 3, 2, 1, 1, 1, layered),
		"tet4":   HexToTets(hex),
		"twice":  dup,
		"single": HexToTets(StructuredHex(1, 1, 1, 1, 1, 1, nil)),
		"empty":  {Type: Tet4},
	}
}

// sameFacets returns the first difference between two facet lists, bit
// for bit in the normals, or nil.
func sameFacets(got, want []Facet) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d facets, the reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Elem != w.Elem || g.Mat != w.Mat || len(g.Verts) != len(w.Verts) {
			return fmt.Errorf("facet %d is %+v, the reference's is %+v", i, g, w)
		}
		for k := range g.Verts {
			if g.Verts[k] != w.Verts[k] {
				return fmt.Errorf("facet %d has vertices %v, the reference's %v", i, g.Verts, w.Verts)
			}
		}
		for _, c := range [][2]float64{{g.Normal.X, w.Normal.X}, {g.Normal.Y, w.Normal.Y}, {g.Normal.Z, w.Normal.Z}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				return fmt.Errorf("facet %d has normal %v, the reference's %v", i, g.Normal, w.Normal)
			}
		}
	}
	return nil
}

// TestBoundaryFacetsMatchReference pins the bucketed extraction to the
// map version: the same facets, in the same order, with the same bits.
func TestBoundaryFacetsMatchReference(t *testing.T) {
	for name, m := range referenceMeshes() {
		if err := sameFacets(m.BoundaryFacets(), referenceBoundaryFacets(m)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
