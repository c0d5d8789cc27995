package fem

import (
	"math"
	"math/rand"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/mesh"
	"prometheus/internal/sparse"
)

// ebeFixture is one randomized problem with both operator forms: the
// element-by-element operator and its assembled reduced-CSR oracle.
type ebeFixture struct {
	op   *EBEOperator
	kred *sparse.CSR
	fred []float64 // oracle reduced rhs from Reduce (f = 0 load)
	dm   *DofMap
	n    int
}

// buildEBEFixture constructs a jittered hex or tet mesh with random
// Dirichlet values, assembles the reduced CSR through the existing
// pipeline and builds the element-by-element operator from the same
// problem.
func buildEBEFixture(t testing.TB, seed int64) *ebeFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(2)
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	if seed%2 == 0 {
		m = mesh.HexToTets(m)
	}
	for i := range m.Coords {
		m.Coords[i].X += 0.08 * (rng.Float64() - 0.5) / float64(n)
		m.Coords[i].Y += 0.08 * (rng.Float64() - 0.5) / float64(n)
		m.Coords[i].Z += 0.08 * (rng.Float64() - 0.5) / float64(n)
	}
	c := NewConstraints()
	for _, v := range m.VertsWhere(func(p geom.Vec3) bool { return p.Z == 0 }) {
		c.FixVert(v, 0.1*rng.Float64(), 0, -0.05*rng.Float64())
	}
	// A few extra random fixed vertices exercise non-boundary constraints.
	for i := 0; i < 2; i++ {
		c.FixVert(rng.Intn(m.NumVerts()), rng.Float64()-0.5, 0, 0)
	}
	p := NewProblem(m, linearModels(), false)
	dm := c.NewDofMap(m.NumDOF())
	u := make([]float64, m.NumDOF())
	k, _, err := p.AssembleTangent(u)
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, m.NumDOF())
	kred, fred := c.Reduce(k, f, dm)
	op, err := NewEBEOperator(p, u, c, dm)
	if err != nil {
		t.Fatal(err)
	}
	if op.Rows() != kred.NRows {
		t.Fatalf("ebe has %d rows, assembled %d", op.Rows(), kred.NRows)
	}
	return &ebeFixture{op: op, kred: kred, fred: fred, dm: dm, n: kred.NRows}
}

// checkEBEParity compares the element-by-element and assembled products on
// one random vector. The bound is row-scaled: both operators sum identical
// per-element contributions in different association, so the difference
// is a few ULPs of the sum of contribution magnitudes.
func checkEBEParity(t *testing.T, fx *ebeFixture, rng *rand.Rand) {
	t.Helper()
	x := make([]float64, fx.n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ye := make([]float64, fx.n)
	ya := make([]float64, fx.n)
	fx.op.MulVec(x, ye)
	fx.kred.MulVec(x, ya)
	for i := 0; i < fx.n; i++ {
		scale := 0.0
		cols, vals := fx.kred.Row(i)
		for k, j := range cols {
			scale += math.Abs(vals[k] * x[j])
		}
		tol := 1e-12*scale + 1e-300
		if d := math.Abs(ye[i] - ya[i]); d > tol {
			t.Fatalf("row %d: ebe %v vs assembled %v (diff %g > tol %g)", i, ye[i], ya[i], d, tol)
		}
	}
	// Reduced right-hand side parity: the operator's load map applied to
	// f = 0 (that is, -K_fc·u_c) against Reduce's fred.
	fr := make([]float64, fx.n)
	fx.op.LoadMap(fx.dm).Apply(fr, make([]float64, len(fx.dm.Full2Red)), 1)
	for i := range fr {
		if d := math.Abs(fr[i] - fx.fred[i]); d > 1e-12*math.Abs(fx.fred[i])+1e-10 {
			t.Fatalf("rhs %d: ebe %v vs assembled %v", i, fr[i], fx.fred[i])
		}
	}
}

// TestEBELoadMap: the element-by-element load map applied at scale s is
// bit for bit the restricted scaled load minus the constraint force, one
// subtraction per free dof, at several scales.
func TestEBELoadMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		fx := buildEBEFixture(t, seed)
		f := make([]float64, len(fx.dm.Full2Red))
		for i := range f {
			f[i] = float64(i%5-2) * 1e-3
		}
		lm := fx.op.LoadMap(fx.dm)
		got := make([]float64, fx.n)
		sf := make([]float64, len(f))
		for _, s := range []float64{1, 0.5, 2, -1, 1e-3, 3} {
			for i, v := range f {
				sf[i] = s * v
			}
			want := make([]float64, fx.n)
			for i, d := range fx.dm.Red2Full {
				want[i] = sf[d]
				want[i] -= fx.op.cf[i]
			}
			lm.Apply(got, f, s)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d, scale %g, dof %d: load map %v, restrict minus force %v", seed, s, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEBEParity(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		fx := buildEBEFixture(t, seed)
		checkEBEParity(t, fx, rand.New(rand.NewSource(seed+100)))
	}
}

// FuzzEBEParity fuzzes the mesh/constraint seed: whatever geometry and
// Dirichlet set falls out, the element-by-element product must match the
// assembled reduced CSR within the row-scaled ULP bound.
func FuzzEBEParity(f *testing.F) {
	for _, s := range []int64{1, 2, 17, 123} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if seed < 0 {
			seed = -seed
		}
		fx := buildEBEFixture(t, seed)
		checkEBEParity(t, fx, rand.New(rand.NewSource(seed^0x5eed)))
	})
}

// TestEBEBitwisePaths locks in determinism on the one path left, the
// color-major serial scatter: a second product, and the product of a
// second operator built from the same problem, agree bit for bit.
func TestEBEBitwisePaths(t *testing.T) {
	fx := buildEBEFixture(t, 3)
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, fx.n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, fx.n)
	fx.op.MulVec(x, ref)
	again := make([]float64, fx.n)
	for run, op := range []*EBEOperator{fx.op, buildEBEFixture(t, 3).op} {
		op.MulVec(x, again)
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(again[i]) {
				t.Fatalf("run %d: MulVec differs at %d: %v vs %v", run, i, again[i], ref[i])
			}
		}
	}
}

// TestEBEColoringDisjoint verifies the coloring invariant that fixes the
// product's element order: within each color, no free reduced dof
// belongs to two elements.
func TestEBEColoringDisjoint(t *testing.T) {
	fx := buildEBEFixture(t, 5)
	a := fx.op
	for c := 0; c+1 < len(a.colorPtr); c++ {
		seen := make(map[int32]int32)
		for p := a.colorPtr[c]; p < a.colorPtr[c+1]; p++ {
			e := a.order[p]
			for _, d := range a.dofs[int(e)*a.ndof : int(e+1)*a.ndof] {
				if d < 0 {
					continue
				}
				if prev, ok := seen[d]; ok {
					t.Fatalf("color %d: dof %d written by elements %d and %d", c, d, prev, e)
				}
				seen[d] = e
			}
		}
	}
}

// TestEBEApplyZeroAlloc locks in the allocation-free apply: all element
// scratch lives on the kernel stack.
func TestEBEApplyZeroAlloc(t *testing.T) {
	fx := buildEBEFixture(t, 4)
	x := make([]float64, fx.n)
	y := make([]float64, fx.n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	if got := testing.AllocsPerRun(10, func() { fx.op.MulVec(x, y) }); got != 0 {
		t.Errorf("MulVec allocates %.1f per call, want 0", got)
	}
}
