package fem

import (
	"fmt"
	"math"
	"testing"

	"prometheus/internal/material"
	"prometheus/internal/mesh"
)

// integrateElementFull is element integration as it was written before the
// structural zeros of B were skipped and w·b hoisted: every (D, B) term of
// D·B, and w·b·x rounded left to right. integrateElement must give its bits.
func (p *Problem) integrateElementFull(e int, u []float64, scr *elemScratch, ke, fe []float64) error {
	ed := scr.ed
	if err := p.geometry(e, ed); err != nil {
		return err
	}
	nNodes := p.M.Type.NodesPerElem()
	ndof := 3 * nNodes
	model := p.Models[p.M.Mat[e]]
	clear(fe)
	clear(ke)
	gps, _ := quadrature(p.M.Type)
	for g, gp := range gps {
		eps := p.strainAt(e, ed, g, u)
		sig, d, _ := model.Update(p.States[e][g], eps)
		p.bMatrix(ed, g, nNodes, scr.b)
		w := gp.W * ed.detJ[g]
		for i := 0; i < 6; i++ {
			for j := 0; j < ndof; j++ {
				s := 0.0
				for k := 0; k < 6; k++ {
					s += d[i][k] * scr.b[k][j]
				}
				scr.db[i][j] = s
			}
		}
		for i := 0; i < ndof; i++ {
			for k := 0; k < 6; k++ {
				bki := scr.b[k][i]
				if bki == 0 {
					continue
				}
				fe[i] += w * bki * sig[k]
				row := scr.db[k]
				krow := ke[i*ndof : (i+1)*ndof]
				for j := 0; j < ndof; j++ {
					krow[j] += w * bki * row[j]
				}
			}
		}
	}
	return nil
}

// nonFinite is a material whose tangent has one infinite entry.
type nonFinite struct{ material.LinearElastic }

func (m nonFinite) Update(s material.State, eps material.Voigt) (material.Voigt, material.Tangent, material.State) {
	sig, d, next := m.LinearElastic.Update(s, eps)
	d[1][4] = math.Inf(1)
	return sig, d, next
}

// TestIntegrateElementBitwise pins element integration to the full loop it
// replaced, on every element type, with and without B-bar, for the three
// materials — J2 in a yielded state — on a distorted displacement field.
func TestIntegrateElementBitwise(t *testing.T) {
	meshes := map[string]*mesh.Mesh{
		"hex8":  mesh.StructuredHex(2, 2, 2, 1, 1.3, 0.8, nil),
		"tet4":  mesh.HexToTets(mesh.StructuredHex(2, 2, 2, 1, 1.3, 0.8, nil)),
		"hex20": mesh.StructuredHex20(1, 2, 1, 1, 1.3, 0.8, nil),
	}
	models := map[string]material.Model{
		"linear":      material.LinearElastic{E: 1, Nu: 0.3},
		"neo-hookean": material.NeoHookean{E: 1, Nu: 0.45},
		"j2":          material.J2Plasticity{E: 1, Nu: 0.49, SigmaY: 1e-4, H: 0.002},
	}
	for mname, m := range meshes {
		u := make([]float64, m.NumDOF())
		for v, pt := range m.Coords {
			u[3*v] = 0.01*pt.Z + 0.003*pt.Y*pt.Y
			u[3*v+1] = -0.004*pt.X + 0.002*pt.Z
			u[3*v+2] = 0.005 * pt.X * pt.Y
		}
		for matName, model := range models {
			for _, bbar := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/bbar=%v", mname, matName, bbar), func(t *testing.T) {
					p := NewProblem(m, []material.Model{model}, bbar)
					if matName == "j2" {
						if err := p.Commit(u); err != nil {
							t.Fatal(err)
						}
						if p.PlasticFraction(0) == 0 {
							t.Fatal("no Gauss point yielded")
						}
					}
					ndof := 3 * m.Type.NodesPerElem()
					scr := newElemScratch(m.Type)
					ke, fe := make([]float64, ndof*ndof), make([]float64, ndof)
					ke0, fe0 := make([]float64, ndof*ndof), make([]float64, ndof)
					for e := range m.Elems {
						if _, err := p.integrateElement(e, u, scr, ke, fe); err != nil {
							t.Fatal(err)
						}
						if err := p.integrateElementFull(e, u, scr, ke0, fe0); err != nil {
							t.Fatal(err)
						}
						for i := range ke {
							if math.Float64bits(ke[i]) != math.Float64bits(ke0[i]) {
								t.Fatalf("element %d: ke[%d] = %v, the full loop gives %v", e, i, ke[i], ke0[i])
							}
						}
						for i := range fe {
							if math.Float64bits(fe[i]) != math.Float64bits(fe0[i]) {
								t.Fatalf("element %d: fe[%d] = %v, the full loop gives %v", e, i, fe[i], fe0[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestIntegrateElementNonFiniteTangent checks that a non-finite material
// tangent still reaches the element tangent when the terms of B's
// structural zeros, which would carry it as NaN, are skipped.
func TestIntegrateElementNonFiniteTangent(t *testing.T) {
	for _, bbar := range []bool{false, true} {
		m := mesh.StructuredHex(1, 1, 1, 1, 1, 1, nil)
		p := NewProblem(m, []material.Model{nonFinite{material.LinearElastic{E: 1, Nu: 0.3}}}, bbar)
		ndof := 3 * m.Type.NodesPerElem()
		ke, fe := make([]float64, ndof*ndof), make([]float64, ndof)
		if _, err := p.integrateElement(0, make([]float64, m.NumDOF()), newElemScratch(m.Type), ke, fe); err != nil {
			t.Fatal(err)
		}
		finite := true
		for _, v := range ke {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if finite {
			t.Errorf("bbar=%v: an infinite tangent entry gives a finite element tangent", bbar)
		}
	}
}
