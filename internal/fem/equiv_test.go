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
		got, gotF, err := tc.p.AssembleTangent(u)
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

// splitCons returns the cube's constraints with, besides its clamped
// base, the x dof of every other vertex on the face x = 0 fixed by FixDof
// to a value that is mostly nonzero: the block rows of those nodes split
// between free and fixed columns.
func splitCons(c *problems.Cube) *fem.Constraints {
	cons := c.Cons.Scaled(1)
	for v, q := range c.Mesh.Coords {
		if q.X == 0 && q.Z != 0 {
			cons.FixDof(3*v, 1e-3*q.Y)
		}
	}
	return cons
}

// TestSelectMatchesBuilder pins Reduce, which reads the blocked tangent
// through sparse.BSR.Select, to the Builder copy of its scalar expansion:
// matrix bits and right-hand-side bits, on component-wise constraints
// (spheres, and the cube with single dofs fixed) and node-aligned ones
// (cube), with an isolated node's emptied rows and a stored -0.0 planted
// in the tangent.
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
		{"cube FixDof", fem.NewProblem(cube.Mesh, cube.Models, false), splitCons(cube), false},
	} {
		k, fint, err := tc.p.AssembleTangent(crushed(tc.p.M))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dm := tc.cons.NewDofMap(k.Rows())
		if nodeAligned(dm) != tc.nodeAligned {
			t.Fatalf("%s: node-aligned = %v, the case is meant to cover %v", tc.name, !tc.nodeAligned, tc.nodeAligned)
		}
		// The -0.0 goes on a diagonal, so that it stays in the reduced
		// matrix rather than in the right-hand-side correction.
		free := dm.Red2Full[dm.NumFree()/2]
		diag, _ := slices.BinarySearch(k.ColIdx[k.RowPtr[free/3]:k.RowPtr[free/3+1]], free/3)
		k.Val[(k.RowPtr[free/3]+diag)*9+free%3*4] = math.Copysign(0, -1)
		k = isolate(k, dm.Red2Full[dm.NumFree()/3]/3)

		got, gotF := fem.ReduceLoad(tc.cons, k, fint, dm)
		want, wantF := reduceBuilder(tc.cons, k.ToCSR(), fint, dm)
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

// TestLoadMapIsReduce: Reduce's load map, built once and applied at scale
// s, gives bit for bit the right-hand side the Builder reference gives for
// the vector s·f — on the cube and cantilever (zero prescribed values) and
// on the crushed spheres (nonzero ones), at every scale the service is
// tested with. A negative scale turns the zero entries of f into -0, and
// the signed zeros must come out as the reference has them.
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
		{"cube FixDof", fem.NewProblem(cube.Mesh, cube.Models, false), splitCons(cube), cube.Load},
	} {
		k, _, err := tc.p.AssembleTangent(make([]float64, tc.p.M.NumDOF()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dm := tc.cons.NewDofMap(k.Rows())
		_, lm := tc.cons.Reduce(k, dm)
		got := make([]float64, dm.NumFree())
		sf := make([]float64, len(tc.f))
		for _, s := range []float64{1, 0.5, 2, -1, 1e-3, 3} {
			for i, v := range tc.f {
				sf[i] = s * v
			}
			lm.Apply(got, tc.f, s)
			if _, want := reduceBuilder(tc.cons, k.ToCSR(), sf, dm); !sameFloatBits(got, want) {
				t.Fatalf("%s, scale %g: the load map differs from the reference loop", tc.name, s)
			}
			if s < 0 && !slices.ContainsFunc(got, func(x float64) bool { return x == 0 && math.Signbit(x) }) {
				t.Fatalf("%s, scale %g: oracle broken, no -0 in the right-hand side", tc.name, s)
			}
		}
	}
}

// isolate returns a copy of k with block row and block column v
// dropped: node v's rows come out empty, and k stays symmetric.
func isolate(k *sparse.BSR, v int) *sparse.BSR {
	out := &sparse.BSR{NBRows: k.NBRows, NBCols: k.NBCols, B: k.B, RowPtr: make([]int, 1, k.NBRows+1)}
	bb := k.B * k.B
	for ib := 0; ib < k.NBRows; ib++ {
		for q := k.RowPtr[ib]; q < k.RowPtr[ib+1]; q++ {
			if ib != v && k.ColIdx[q] != v {
				out.ColIdx = append(out.ColIdx, k.ColIdx[q])
				out.Val = append(out.Val, k.Val[q*bb:q*bb+bb]...)
			}
		}
		out.RowPtr = append(out.RowPtr, len(out.ColIdx))
	}
	return out
}

// TestAssemblyIndependentOfProcs checks the assembled BSR, fint, and the
// reduced kred and fred read from its blocks against the serial references
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
			kb, fint, err := tc.p.AssembleTangent(u)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("%s: %v", tc.name, err)
			}
			kred, fred := fem.ReduceLoad(tc.cons, kb, fint, dm)
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
