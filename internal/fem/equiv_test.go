package fem_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"prometheus/internal/fem"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// crushed returns a displacement that strains every element well past the
// J2 yield strain: five percent of uniform vertical compression.
func crushed(m *mesh.Mesh) []float64 {
	u := make([]float64, m.NumDOF())
	for v, p := range m.Coords {
		u[3*v+2] = -0.05 * p.Z
	}
	return u
}

// TestAssembleMatchesBuilderReference pins the pattern-first assembly to
// the BlockBuilder assembly it replaced: same block pattern, same value
// bits, same internal force bits, serial and concurrent.
func TestAssembleMatchesBuilderReference(t *testing.T) {
	spheres := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4})
	cubeN := 24
	if testing.Short() {
		cubeN = 8
	}
	cube := problems.NewCube(cubeN, material.LinearElastic{E: 1, Nu: 0.3}, -0.001)
	hex := mesh.StructuredHex(5, 4, 3, 5, 4, 3, nil)
	j2 := []material.Model{material.J2Plasticity{E: 1, Nu: 0.3, SigmaY: 1e-3, H: 0.002}}
	for _, tc := range []struct {
		name  string
		p     *fem.Problem
		procs int // GOMAXPROCS of the assembly: 1 is serial, more is pooled
	}{
		{"spheres B-bar J2", fem.NewProblem(spheres.Mesh, spheres.Models, true), 2},
		{"cube", fem.NewProblem(cube.Mesh, cube.Models, false), 2},
		{"tet4", fem.NewProblem(mesh.HexToTets(hex), j2, false), 1},
		{"tet4 procs=3", fem.NewProblem(mesh.HexToTets(hex), j2, false), 3},
		{"hex20", fem.NewProblem(mesh.StructuredHex20(3, 2, 2, 3, 2, 2, nil), j2, true), 1},
		{"hex20 procs=3", fem.NewProblem(mesh.StructuredHex20(3, 2, 2, 3, 2, 2, nil), j2, true), 3},
	} {
		u := crushed(tc.p.M)
		want, wantF, err := fem.AssembleBlockTangentBuilder(tc.p, u)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		prev := runtime.GOMAXPROCS(tc.procs)
		got, gotF, err := tc.p.AssembleBlockTangent(u)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.NBRows != want.NBRows || got.NBCols != want.NBCols || got.B != want.B ||
			!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("%s: block pattern differs from the BlockBuilder reference", tc.name)
		}
		if !sameFloatBits(got.Val, want.Val) {
			t.Fatalf("%s: tangent bits differ from the BlockBuilder reference", tc.name)
		}
		if !sameFloatBits(gotF, wantF) {
			t.Fatalf("%s: internal force bits differ from the reference", tc.name)
		}
	}
}

// reduceBuilder is the reference Reduce: the free rows and columns copied
// entry by entry through sparse.Builder.
func reduceBuilder(c *fem.Constraints, k *sparse.CSR, f []float64, m *fem.DofMap) (*sparse.CSR, []float64) {
	kb := sparse.NewBuilder(m.NumFree(), m.NumFree())
	fr := make([]float64, m.NumFree())
	for rFull, rRed := range m.Full2Red {
		if rRed < 0 {
			continue
		}
		fr[rRed] = f[rFull]
		cols, vals := k.Row(rFull)
		for i, cFull := range cols {
			if cRed := m.Full2Red[cFull]; cRed >= 0 {
				kb.Add(rRed, cRed, vals[i])
			} else {
				fr[rRed] -= vals[i] * c.Fixed[cFull]
			}
		}
	}
	return kb.Build(), fr
}

// TestSelectMatchesBuilder pins Reduce, now a caller of sparse.Select, to
// the Builder copy it replaced: matrix bits and right-hand-side bits, on
// component-wise constraints (spheres) and node-aligned ones (cube), with
// an emptied row and a stored -0.0 planted in the tangent.
func TestSelectMatchesBuilder(t *testing.T) {
	spheres := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2})
	cube := problems.NewCube(6, material.LinearElastic{E: 1, Nu: 0.3}, -0.001)
	for _, tc := range []struct {
		name        string
		p           *fem.Problem
		cons        *fem.Constraints
		nodeAligned bool
	}{
		{"spheres", fem.NewProblem(spheres.Mesh, spheres.Models, true), spheres.Cons.Scaled(0.1), false},
		{"cube", fem.NewProblem(cube.Mesh, cube.Models, false), cube.Cons, true},
	} {
		k, fint, err := tc.p.AssembleTangent(crushed(tc.p.M))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dm := tc.cons.NewDofMap(k.NRows)
		if dm.NodeAligned(3) != tc.nodeAligned {
			t.Fatalf("%s: NodeAligned = %v, the case is meant to cover %v", tc.name, !tc.nodeAligned, tc.nodeAligned)
		}
		// The -0.0 goes on a diagonal, so that it stays in the reduced
		// matrix rather than in the right-hand-side correction.
		free := dm.Red2Full[dm.NumFree()/2]
		diag, _ := slices.BinarySearch(k.ColIdx[k.RowPtr[free]:k.RowPtr[free+1]], free)
		k.Val[k.RowPtr[free]+diag] = math.Copysign(0, -1)
		empty := dm.Red2Full[dm.NumFree()/3]
		k = dropRow(k, empty)

		got, gotF := tc.cons.Reduce(k, fint, dm)
		want, wantF := reduceBuilder(tc.cons, k, fint, dm)
		if got.NRows != want.NRows || got.NCols != want.NCols ||
			!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("%s: reduced pattern differs from the Builder reference", tc.name)
		}
		if !sameFloatBits(got.Val, want.Val) {
			t.Fatalf("%s: reduced matrix bits differ from the Builder reference", tc.name)
		}
		if !sameFloatBits(gotF, wantF) {
			t.Fatalf("%s: reduced right-hand side bits differ from the Builder reference", tc.name)
		}
	}
}

// dropRow returns a copy of k with row r emptied.
func dropRow(k *sparse.CSR, r int) *sparse.CSR {
	lo, hi := k.RowPtr[r], k.RowPtr[r+1]
	out := &sparse.CSR{NRows: k.NRows, NCols: k.NCols,
		RowPtr: slices.Clone(k.RowPtr),
		ColIdx: slices.Delete(slices.Clone(k.ColIdx), lo, hi),
		Val:    slices.Delete(slices.Clone(k.Val), lo, hi)}
	for i := r + 1; i <= k.NRows; i++ {
		out.RowPtr[i] -= hi - lo
	}
	return out
}
