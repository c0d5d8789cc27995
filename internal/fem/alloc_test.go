package fem

import (
	"runtime/debug"
	"testing"

	"prometheus/internal/check"
	"prometheus/internal/geom"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
)

// TestIntegrateElementZeroAlloc locks in that element integration works
// entirely in the per-worker scratch: geometry, Jacobians, shape
// gradients and B-bar means allocate nothing per element.
func TestIntegrateElementZeroAlloc(t *testing.T) {
	hex := mesh.StructuredHex(3, 3, 3, 1, 1, 1, nil)
	models := []material.Model{material.J2Plasticity{E: 1, Nu: 0.3, SigmaY: 1e-3, H: 0.002}}
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
		bbar bool
	}{
		{"hex8", hex, false},
		{"hex8 B-bar", hex, true},
		{"tet4", mesh.HexToTets(hex), false},
		{"hex20", mesh.StructuredHex20(2, 2, 2, 1, 1, 1, nil), true},
	} {
		p := NewProblem(tc.m, models, tc.bbar)
		u := make([]float64, tc.m.NumDOF())
		for v, c := range tc.m.Coords {
			u[3*v+2] = -0.05 * c.Z
		}
		ndof := 3 * tc.m.Type.NodesPerElem()
		scr := newElemScratch(tc.m.Type)
		ke := make([]float64, ndof*ndof)
		fe := make([]float64, ndof)
		e := 0
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := p.integrateElement(e%tc.m.NumElems(), u, scr, ke, fe); err != nil {
				t.Fatal(err)
			}
			e++
		})
		if allocs != 0 {
			t.Errorf("%s: integrateElement allocates %v times per element, want 0", tc.name, allocs)
		}
	}
}

// TestAssembleAllocsIndependentOfSize locks in that assembly allocates
// its arrays once from the pattern: the allocation count is the same on a
// mesh of one chunk and on one of several.
func TestAssembleAllocsIndependentOfSize(t *testing.T) {
	// A collection cycle allocates a little of its own, and the larger
	// mesh triggers more of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(n int) float64 {
		m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
		p := NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
		u := make([]float64, m.NumDOF())
		return testing.AllocsPerRun(3, func() {
			if _, _, err := p.AssembleBlockTangent(u); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := count(4), count(9) // 64 and 729 elements: 1 and 3 chunks
	if small != large {
		t.Fatalf("AssembleBlockTangent allocates %v times on 64 elements and %v on 729", small, large)
	}
}

// TestReduceAllocBudget locks in that Reduce allocates the reduced arrays
// and the load map's, and nothing that grows with the matrix: four for
// the matrix and five for the map, with one to spare, as a run now and
// then counts one more.
func TestReduceAllocBudget(t *testing.T) {
	if check.Enabled {
		t.Skip("the promdebug well-formedness check of the reduced matrix boxes its arguments: one allocation per assertion")
	}
	m := mesh.StructuredHex(6, 6, 6, 1, 1, 1, nil)
	p := NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	c := NewConstraints()
	for _, v := range m.VertsWhere(func(q geom.Vec3) bool { return q.Z == 0 }) {
		c.FixVert(v, 0, 0, 0.01)
	}
	dm := c.NewDofMap(m.NumDOF())
	if allocs := testing.AllocsPerRun(5, func() { c.Reduce(k, dm) }); allocs > 10 {
		t.Fatalf("Reduce allocates %v times, want at most 10", allocs)
	}
}
