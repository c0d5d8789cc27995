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
	// A collapsed element lists a vertex twice: its top edge 6–7 is one
	// vertex.
	collapsed := mesh.StructuredHex(3, 2, 2, 3, 2, 2, nil)
	collapsed.Elems[4][7] = collapsed.Elems[4][6]
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
		{"collapsed hex8", fem.NewProblem(collapsed, j2, false), 1},
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

// nodeAligned reports whether the reduced numbering preserves 3-dof node
// blocks: every node has either all three of its dofs free or all three
// fixed, and free nodes keep their dofs consecutive in the reduced
// numbering. Constraints built with FixVert satisfy this; component-wise
// FixDof constraints (e.g. a symmetry plane) do not.
func nodeAligned(m *fem.DofMap) bool {
	if len(m.Full2Red)%3 != 0 {
		return false
	}
	for v := 0; v < len(m.Full2Red); v += 3 {
		r0 := m.Full2Red[v]
		free := r0 >= 0
		for d := 1; d < 3; d++ {
			r := m.Full2Red[v+d]
			if (r >= 0) != free || free && r != r0+d {
				return false
			}
		}
	}
	return true
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
		if nodeAligned(dm) != tc.nodeAligned {
			t.Fatalf("%s: node-aligned = %v, the case is meant to cover %v", tc.name, !tc.nodeAligned, tc.nodeAligned)
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

// TestLoadMapIsReduce: ReduceOperator's matrix is bit for bit Reduce's,
// and its load map, built once and applied at scale s, gives bit for bit
// the right-hand side that Reduce and the Builder reference give for the
// vector s·f — on the cube and cantilever (zero prescribed values) and on
// the crushed spheres (nonzero ones), at every scale the service is tested
// with. A negative scale turns the zero entries of f into -0, and the
// signed zeros must come out as the reference has them.
func TestLoadMapIsReduce(t *testing.T) {
	elastic := material.LinearElastic{E: 1, Nu: 0.3}
	cube := problems.NewCube(4, elastic, -0.001)
	beam := problems.NewCantilever(12, 2, 2, 6, elastic, -0.0001)
	spheres := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2})
	// The spheres are driven by displacement alone; give them a load with
	// zero, positive and negative entries.
	sphereLoad := make([]float64, spheres.Mesh.NumDOF())
	for i := range sphereLoad {
		sphereLoad[i] = float64(i%5-2) * 1e-3
	}
	for _, tc := range []struct {
		name string
		p    *fem.Problem
		cons *fem.Constraints
		f    []float64
	}{
		{"cube", fem.NewProblem(cube.Mesh, cube.Models, false), cube.Cons, cube.Load},
		{"cantilever", fem.NewProblem(beam.Mesh, beam.Models, false), beam.Cons, beam.Load},
		{"spheres crush", fem.NewProblem(spheres.Mesh, spheres.Models, true), spheres.Cons, sphereLoad},
	} {
		k, _, err := tc.p.AssembleTangent(make([]float64, tc.p.M.NumDOF()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dm := tc.cons.NewDofMap(k.NRows)
		kRed, lm := tc.cons.ReduceOperator(k, dm)
		want, _ := tc.cons.Reduce(k, tc.f, dm)
		if !slices.Equal(kRed.RowPtr, want.RowPtr) || !slices.Equal(kRed.ColIdx, want.ColIdx) || !sameFloatBits(kRed.Val, want.Val) {
			t.Fatalf("%s: ReduceOperator's matrix differs from Reduce's", tc.name)
		}
		got := make([]float64, dm.NumFree())
		sf := make([]float64, len(tc.f))
		for _, s := range []float64{1, 0.5, 2, -1, 1e-3, 3} {
			for i, v := range tc.f {
				sf[i] = s * v
			}
			lm.Apply(got, tc.f, s)
			_, viaReduce := tc.cons.Reduce(k, sf, dm)
			_, want := reduceBuilder(tc.cons, k, sf, dm)
			if !sameFloatBits(got, want) || !sameFloatBits(viaReduce, want) {
				t.Fatalf("%s, scale %g: load map or Reduce differs from the reference loop", tc.name, s)
			}
			if s < 0 && !slices.ContainsFunc(got, func(x float64) bool { return x == 0 && math.Signbit(x) }) {
				t.Fatalf("%s, scale %g: oracle broken, no -0 in the right-hand side", tc.name, s)
			}
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

// TestAssemblyIndependentOfProcs checks the assembled BSR, fint, and the
// reduced kred and fred of its expansion against the serial references
// (the BlockBuilder assembly and the Builder reduction) by Float64bits at
// GOMAXPROCS 1, 2 and 4, on systems whose drain chunks and conversions
// are above pool.Grain: the cube under node-aligned constraints, and the
// crushed B-bar J2 spheres, whose symmetry planes fix single components.
func TestAssemblyIndependentOfProcs(t *testing.T) {
	spheres := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2})
	cube := problems.NewCube(8, material.LinearElastic{E: 1, Nu: 0.3}, -0.001)
	for _, tc := range []struct {
		name string
		p    *fem.Problem
		cons *fem.Constraints
	}{
		{"cube", fem.NewProblem(cube.Mesh, cube.Models, false), cube.Cons},
		{"spheres B-bar J2", fem.NewProblem(spheres.Mesh, spheres.Models, true), spheres.Cons.Scaled(0.1)},
	} {
		u := crushed(tc.p.M)
		want, wantF, err := fem.AssembleBlockTangentBuilder(tc.p, u)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		dm := tc.cons.NewDofMap(tc.p.M.NumDOF())
		wantRed, wantRedF := reduceBuilder(tc.cons, want.ToCSR(), wantF, dm)
		if tc.name != "cube" && nodeAligned(dm) {
			t.Fatalf("%s: the constraints are node-aligned, the case is meant to cover the other kind", tc.name)
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			kb, fint, err := tc.p.AssembleBlockTangent(u)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("%s: %v", tc.name, err)
			}
			kred, fred := tc.cons.Reduce(kb.ToCSR(), fint, dm)
			runtime.GOMAXPROCS(prev)
			if !slices.Equal(kb.RowPtr, want.RowPtr) || !slices.Equal(kb.ColIdx, want.ColIdx) || !sameFloatBits(kb.Val, want.Val) {
				t.Fatalf("%s, GOMAXPROCS=%d: assembled BSR differs from the BlockBuilder reference", tc.name, procs)
			}
			if !sameFloatBits(fint, wantF) {
				t.Fatalf("%s, GOMAXPROCS=%d: fint differs from the reference", tc.name, procs)
			}
			if !slices.Equal(kred.RowPtr, wantRed.RowPtr) || !slices.Equal(kred.ColIdx, wantRed.ColIdx) || !sameFloatBits(kred.Val, wantRed.Val) {
				t.Fatalf("%s, GOMAXPROCS=%d: kred differs from the Builder reduction", tc.name, procs)
			}
			if !sameFloatBits(fred, wantRedF) {
				t.Fatalf("%s, GOMAXPROCS=%d: fred differs from the Builder reduction", tc.name, procs)
			}
		}
	}
}
