package fem_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"prometheus/internal/check"
	"prometheus/internal/fem"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/problems"
)

// asymmetry reports the first entry of an n×n matrix of b×b row-major
// blocks (b = 1 for CSR) whose mirror is missing or has other bits.
func asymmetry(n, b int, rowPtr, colIdx []int, val []float64) error {
	bb := b * b
	for i := 0; i < n; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			t, ok := slices.BinarySearch(colIdx[rowPtr[j]:rowPtr[j+1]], i)
			if !ok {
				return fmt.Errorf("block (%d,%d) is stored and (%d,%d) is not", i, j, j, i)
			}
			m := rowPtr[j] + t
			for r := 0; r < b; r++ {
				for c := 0; c < b; c++ {
					x, y := val[bb*k+b*r+c], val[bb*m+b*c+r]
					if math.Float64bits(x) != math.Float64bits(y) {
						return fmt.Errorf("entry (%d,%d) = %v, its mirror %v", b*i+r, b*j+c, x, y)
					}
				}
			}
		}
	}
	return nil
}

// denseAsymmetry is asymmetry for a dense row-major n×n matrix.
func denseAsymmetry(a []float64, n int) error {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Float64bits(a[i*n+j]) != math.Float64bits(a[j*n+i]) {
				return fmt.Errorf("entry (%d,%d) = %v, its mirror %v", i, j, a[i*n+j], a[j*n+i])
			}
		}
	}
	return nil
}

// yielded commits p at u and fails unless some Gauss point of material
// mat yielded.
func yielded(t *testing.T, p *fem.Problem, u []float64, mat int) {
	t.Helper()
	if err := p.Commit(u); err != nil {
		t.Fatal(err)
	}
	if p.PlasticFraction(mat) == 0 {
		t.Fatal("no Gauss point yielded")
	}
}

// TestTangentsBitwiseSymmetric: element tangents (hex8, hex20, tet4, J2
// yielded, with and without B-bar) and the assembled and reduced
// operators (the cube, the cantilever and the B-bar spheres with J2
// yielded) are symmetric bit for bit, so the lower triangle the block
// smoother factors holds the numbers the products multiply by.
func TestTangentsBitwiseSymmetric(t *testing.T) {
	j2 := []material.Model{material.J2Plasticity{E: 1, Nu: 0.49, SigmaY: 1e-4, H: 0.002}}
	for name, m := range map[string]*mesh.Mesh{
		"hex8":  mesh.StructuredHex(2, 2, 2, 1, 1.3, 0.8, nil),
		"tet4":  mesh.HexToTets(mesh.StructuredHex(2, 2, 2, 1, 1.3, 0.8, nil)),
		"hex20": mesh.StructuredHex20(1, 2, 1, 1, 1.3, 0.8, nil),
	} {
		for _, bbar := range []bool{false, true} {
			t.Run(fmt.Sprintf("element/%s/bbar=%v", name, bbar), func(t *testing.T) {
				p := fem.NewProblem(m, j2, bbar)
				u := crushed(m)
				yielded(t, p, u, 0)
				ndof := 3 * m.Type.NodesPerElem()
				for e := range m.Elems {
					ke, _, err := fem.ElementTangent(p, e, u)
					if err != nil {
						t.Fatal(err)
					}
					if err := denseAsymmetry(ke, ndof); err != nil {
						t.Fatalf("element %d: %v", e, err)
					}
				}
			})
		}
	}

	elastic := material.LinearElastic{E: 1, Nu: 0.3}
	cube := problems.NewCube(4, elastic, -0.001)
	beam := problems.NewCantilever(12, 2, 2, 6, elastic, -0.0001)
	spheres := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2})
	for _, tc := range []struct {
		name string
		p    *fem.Problem
		cons *fem.Constraints
		j2   bool
	}{
		{"cube", fem.NewProblem(cube.Mesh, cube.Models, false), cube.Cons, false},
		{"cantilever", fem.NewProblem(beam.Mesh, beam.Models, false), beam.Cons, false},
		{"spheres B-bar J2", fem.NewProblem(spheres.Mesh, spheres.Models, true), spheres.Cons, true},
	} {
		t.Run("operator/"+tc.name, func(t *testing.T) {
			u := make([]float64, tc.p.M.NumDOF())
			if tc.j2 {
				u = crushed(tc.p.M)
				yielded(t, tc.p, u, material.MatHard)
			}
			k, _, err := tc.p.AssembleTangent(u)
			if err != nil {
				t.Fatal(err)
			}
			if err := asymmetry(k.NBRows, k.B, k.RowPtr, k.ColIdx, k.Val); err != nil {
				t.Fatalf("assembled: %v", err)
			}
			kred, _ := tc.cons.Reduce(k, tc.cons.NewDofMap(tc.p.M.NumDOF()))
			if err := asymmetry(kred.NRows, 1, kred.RowPtr, kred.ColIdx, kred.Val); err != nil {
				t.Fatalf("reduced: %v", err)
			}
		})
	}
}

// TestUnmirroredBlockIsCaught is the seeded break: an element kernel that
// leaves one node-pair block unmirrored gives an element tangent and an
// assembled operator that fail the symmetry test, and check.SymmetricValues
// panics on the operator under promdebug.
func TestUnmirroredBlockIsCaught(t *testing.T) {
	cube := problems.NewCube(3, material.LinearElastic{E: 1, Nu: 0.3}, -0.001)
	p := fem.NewProblem(cube.Mesh, cube.Models, true)
	u := crushed(p.M)
	ndof := 3 * p.M.Type.NodesPerElem()
	ke, _, err := fem.ElementTangent(p, 0, u)
	if err != nil {
		t.Fatal(err)
	}
	fem.Unmirror(ke, ndof)
	if denseAsymmetry(ke, ndof) == nil {
		t.Fatal("an element tangent with block (1, 0) unmirrored passes the symmetry test")
	}
	k, _, err := fem.AssembleUnmirrored(p, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if asymmetry(k.NBRows, k.B, k.RowPtr, k.ColIdx, k.Val) == nil {
		t.Fatal("an operator assembled with one block unmirrored passes the symmetry test")
	}
	panicked := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		check.SymmetricValues(k.NBRows, k.B, k.RowPtr, k.ColIdx, k.Val, "unmirrored")
		return false
	}()
	if panicked != check.Enabled {
		t.Fatalf("check.SymmetricValues on the unmirrored operator: panicked = %v, want %v", panicked, check.Enabled)
	}
}
