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
// D·B, and w·b·x rounded left to right. integrateElement must give its bits
// in the upper triangle of the tangent (elementContract).
func (p *Problem) integrateElementFull(e int, u []float64, scr *elemScratch, ke, fe []float64) error {
	ed := scr.ed
	if err := p.geometry(e, ed); err != nil {
		return err
	}
	nNodes := p.M.Type.NodesPerElem()
	ndof := 3 * nNodes
	b, db := make([][]float64, 6), make([][]float64, 6)
	for i := range b {
		b[i], db[i] = make([]float64, ndof), make([]float64, ndof)
	}
	model := p.Models[p.M.Mat[e]]
	clear(fe)
	clear(ke)
	gps, _ := quadrature(p.M.Type)
	for g, gp := range gps {
		eps := p.strainAt(e, ed, g, u)
		sig, d, _ := model.Update(p.States[e][g], eps)
		p.bMatrix(ed, g, nNodes, b)
		w := gp.W * ed.detJ[g]
		for i := 0; i < 6; i++ {
			for j := 0; j < ndof; j++ {
				s := 0.0
				for k := 0; k < 6; k++ {
					s += d[i][k] * b[k][j]
				}
				db[i][j] = s
			}
		}
		for i := 0; i < ndof; i++ {
			for k := 0; k < 6; k++ {
				bki := b[k][i]
				if bki == 0 {
					continue
				}
				fe[i] += w * bki * sig[k]
				row := db[k]
				krow := ke[i*ndof : (i+1)*ndof]
				for j := 0; j < ndof; j++ {
					krow[j] += w * bki * row[j]
				}
			}
		}
	}
	return nil
}

// bMatrix fills the 6×(3n) strain-displacement matrix at Gauss point g,
// with the B-bar volumetric correction when enabled.
func (p *Problem) bMatrix(ed *elementData, g, nNodes int, b [][]float64) {
	for i := range b {
		for j := range b[i] {
			b[i][j] = 0
		}
	}
	for a := 0; a < nNodes; a++ {
		gx := ed.dndx[g][a]
		c := 3 * a
		b[0][c] = gx.X
		b[1][c+1] = gx.Y
		b[2][c+2] = gx.Z
		b[3][c] = gx.Y
		b[3][c+1] = gx.X
		b[4][c+1] = gx.Z
		b[4][c+2] = gx.Y
		b[5][c] = gx.Z
		b[5][c+2] = gx.X
	}
	if p.BBar {
		for a := 0; a < nNodes; a++ {
			gx := ed.dndx[g][a]
			gb := ed.bbar[a]
			d := [3]float64{
				(gb.X - gx.X) / 3,
				(gb.Y - gx.Y) / 3,
				(gb.Z - gx.Z) / 3,
			}
			for row := 0; row < 3; row++ {
				b[row][3*a] += d[0]
				b[row][3*a+1] += d[1]
				b[row][3*a+2] += d[2]
			}
		}
	}
}

// nonFinite is a material whose tangent has one infinite entry.
type nonFinite struct{ material.LinearElastic }

func (m nonFinite) Update(s material.State, eps material.Voigt) (material.Voigt, material.Tangent, material.State) {
	sig, d, next := m.LinearElastic.Update(s, eps)
	d[1][4] = math.Inf(1)
	return sig, d, next
}

// elementContract reports where ke and fe, from integrateElement, break
// its contract with ke0 and fe0 from integrateElementFull: fe and the upper
// triangle of ke, diagonal included, are the full loop's bit for bit, and
// every entry below the diagonal is its mirror.
func elementContract(ke, fe, ke0, fe0 []float64, ndof int) error {
	for i := 0; i < ndof; i++ {
		for j := 0; j < ndof; j++ {
			got := ke[i*ndof+j]
			if j < i {
				if want := ke[j*ndof+i]; math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("ke[%d][%d] = %v is not its mirror %v", i, j, got, want)
				}
			} else if want := ke0[i*ndof+j]; math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("ke[%d][%d] = %v, the full loop gives %v", i, j, got, want)
			}
		}
	}
	for i := range fe {
		if math.Float64bits(fe[i]) != math.Float64bits(fe0[i]) {
			return fmt.Errorf("fe[%d] = %v, the full loop gives %v", i, fe[i], fe0[i])
		}
	}
	return nil
}

// TestIntegrateElementBitwise pins element integration to the full loop it
// replaced (elementContract), on every element type, with and without
// B-bar, for the three materials — J2 in a yielded state — on a distorted
// displacement field.
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
						if err := elementContract(ke, fe, ke0, fe0, ndof); err != nil {
							t.Fatalf("element %d: %v", e, err)
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

// FuzzIntegrateElement holds element integration to its contract with the
// full loop (elementContract) on one hex8 with jittered vertices: each
// byte of jitter moves one coordinate by up to 0.3 of the edge. The
// displacement gradient (ux, uy, uz), within ±1, is sheared and bent; the
// material is linear, neo-Hookean or J2 (committed first, so yielded where
// the strain reaches it), with or without B-bar. An element the geometry
// rejects or whose full-loop tangent is not finite falls outside the
// contract.
func FuzzIntegrateElement(f *testing.F) {
	f.Add([]byte{}, 0.01, -0.004, 0.005, uint8(0), false)
	f.Add([]byte{20, 236, 7, 90, 3, 200, 45, 17, 128, 66, 1, 250}, 0.02, 0.01, -0.03, uint8(1), true)
	f.Add([]byte{9, 250, 31, 100, 77, 140, 5, 60, 18, 222, 13, 64, 99, 2, 170}, -0.05, 0.02, 0.04, uint8(2), true)
	f.Add([]byte{255, 0, 127, 128}, 0.3, -0.2, 0.1, uint8(2), false)
	models := []material.Model{
		material.LinearElastic{E: 1, Nu: 0.3},
		material.NeoHookean{E: 1, Nu: 0.45},
		material.J2Plasticity{E: 1, Nu: 0.49, SigmaY: 1e-4, H: 0.002},
	}
	f.Fuzz(func(t *testing.T, jitter []byte, ux, uy, uz float64, mat uint8, bbar bool) {
		if !(math.Abs(ux) <= 1 && math.Abs(uy) <= 1 && math.Abs(uz) <= 1) {
			return
		}
		m := mesh.StructuredHex(1, 1, 1, 1, 1, 1, nil)
		for i, j := range jitter[:min(len(jitter), 3*len(m.Coords))] {
			d := 0.3 * float64(int8(j)) / 128
			switch c := &m.Coords[i/3]; i % 3 {
			case 0:
				c.X += d
			case 1:
				c.Y += d
			default:
				c.Z += d
			}
		}
		u := make([]float64, m.NumDOF())
		for v, pt := range m.Coords {
			u[3*v] = ux*pt.Z + uy*pt.Y*pt.Y
			u[3*v+1] = uy*pt.X + uz*pt.Z
			u[3*v+2] = uz*pt.X*pt.Y + ux*pt.Z
		}
		p := NewProblem(m, []material.Model{models[int(mat)%len(models)]}, bbar)
		if mat%3 == 2 {
			if err := p.Commit(u); err != nil {
				return
			}
		}
		ndof := 3 * m.Type.NodesPerElem()
		ke, fe := make([]float64, ndof*ndof), make([]float64, ndof)
		ke0, fe0 := make([]float64, ndof*ndof), make([]float64, ndof)
		scr := newElemScratch(m.Type)
		_, err := p.integrateElement(0, u, scr, ke, fe)
		if errFull := p.integrateElementFull(0, u, scr, ke0, fe0); (err == nil) != (errFull == nil) {
			t.Fatalf("integrateElement returns %v, the full loop %v", err, errFull)
		} else if err != nil {
			return
		}
		for _, v := range append(ke0, fe0...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if err := elementContract(ke, fe, ke0, fe0, ndof); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkIntegrateElement times one hex8 element tangent, linear
// elastic, without and with B-bar.
func BenchmarkIntegrateElement(b *testing.B) {
	m := mesh.StructuredHex(4, 4, 4, 1, 1.3, 0.8, nil)
	u := make([]float64, m.NumDOF())
	for v, pt := range m.Coords {
		u[3*v] = 0.01 * pt.Z
	}
	for _, bbar := range []bool{false, true} {
		b.Run(fmt.Sprintf("bbar=%v", bbar), func(b *testing.B) {
			p := NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, bbar)
			ndof := 3 * m.Type.NodesPerElem()
			scr := newElemScratch(m.Type)
			ke, fe := make([]float64, ndof*ndof), make([]float64, ndof)
			for i := 0; i < b.N; i++ {
				if _, err := p.integrateElement(i%m.NumElems(), u, scr, ke, fe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
