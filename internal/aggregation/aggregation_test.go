package aggregation

import (
	"math"
	"testing"

	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/krylov"
	"prometheus/internal/la"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/multigrid"
	"prometheus/internal/sparse"
)

func laplace3D(n int) *sparse.CSR {
	id := func(i, j, k int) int { return (i*n+j)*n + k }
	b := sparse.NewBuilder(n*n*n, n*n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				me := id(i, j, k)
				deg := 0
				add := func(o int) {
					b.Add(me, o, -1)
					deg++
				}
				if i > 0 {
					add(id(i-1, j, k))
				}
				if i < n-1 {
					add(id(i+1, j, k))
				}
				if j > 0 {
					add(id(i, j-1, k))
				}
				if j < n-1 {
					add(id(i, j+1, k))
				}
				if k > 0 {
					add(id(i, j, k-1))
				}
				if k < n-1 {
					add(id(i, j, k+1))
				}
				b.Add(me, me, float64(deg)+0.01) // slightly regularized
			}
		}
	}
	return b.Build()
}

func TestAggregateCoversAllRows(t *testing.T) {
	a := laplace3D(5)
	strong := strengthGraph(a)
	agg, nAgg := aggregate(strong)
	if nAgg < 2 || nAgg >= a.NRows {
		t.Fatalf("nAgg = %d of %d", nAgg, a.NRows)
	}
	seen := make([]int, nAgg)
	for _, g := range agg {
		if g < 0 || g >= nAgg {
			t.Fatalf("row unaggregated: %d", g)
		}
		seen[g]++
	}
	for g, c := range seen {
		if c == 0 {
			t.Fatalf("empty aggregate %d", g)
		}
	}
}

func TestTentativePreservesNearNullSpace(t *testing.T) {
	// P0 must reproduce B exactly: B = P0·Bc.
	a := laplace3D(4)
	bnn := Constants(a.NRows)
	strong := strengthGraph(a)
	agg, nAgg := aggregate(strong)
	p0, bc, err := tentative(agg, nAgg, bnn)
	if err != nil {
		t.Fatal(err)
	}
	if p0.NRows != a.NRows || p0.NCols != bc.Rows {
		t.Fatalf("dims P0 %dx%d Bc %dx%d", p0.NRows, p0.NCols, bc.Rows, bc.Cols)
	}
	// Reconstruct.
	xc := make([]float64, bc.Rows)
	for i := 0; i < bc.Rows; i++ {
		xc[i] = bc.At(i, 0)
	}
	rec := make([]float64, a.NRows)
	p0.MulVec(xc, rec)
	for i := range rec {
		if math.Abs(rec[i]-1) > 1e-10 {
			t.Fatalf("P0·Bc != B at %d: %v", i, rec[i])
		}
	}
	// P0 columns are orthonormal: P0ᵀ·P0 = I.
	ptp := p0.Transpose().Mul(p0)
	for i := 0; i < ptp.NRows; i++ {
		cols, vals := ptp.Row(i)
		for kk, j := range cols {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(vals[kk]-want) > 1e-10 {
				t.Fatalf("P0ᵀP0(%d,%d) = %v", i, j, vals[kk])
			}
		}
	}
}

func TestRigidBodyModesInStiffnessKernel(t *testing.T) {
	// K·B = 0 for an unconstrained elasticity operator.
	m := mesh.StructuredHex(2, 2, 2, 1.2, 0.8, 1.1, nil)
	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	full2red := make([]int, m.NumDOF())
	for i := range full2red {
		full2red[i] = i
	}
	b := RigidBodyModes(m.Coords, full2red, m.NumDOF())
	if b.Cols != 6 {
		t.Fatal("6 modes expected")
	}
	x := make([]float64, m.NumDOF())
	y := make([]float64, m.NumDOF())
	for mode := 0; mode < 6; mode++ {
		for i := range x {
			x[i] = b.At(i, mode)
		}
		k.MulVec(x, y)
		if la.MaxAbs(y) > 1e-10 {
			t.Fatalf("mode %d not in kernel: |K·b| = %v", mode, la.MaxAbs(y))
		}
	}
}

// buildElasticity returns a reduced cube elasticity system with its rigid
// body modes.
func buildElasticity(t *testing.T, n int) (*sparse.CSR, []float64, *la.Dense) {
	t.Helper()
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	cons := fem.NewConstraints()
	f := make([]float64, m.NumDOF())
	for v, pt := range m.Coords {
		if pt.Z == 0 {
			cons.FixVert(v, 0, 0, 0)
		}
		if pt.Z == 1 {
			f[3*v+2] = -0.001
		}
	}
	dm := cons.NewDofMap(m.NumDOF())
	kred, lm := cons.Reduce(k, dm)
	fred := make([]float64, dm.NumFree())
	lm.Apply(fred, f, 1)
	b := RigidBodyModes(m.Coords, dm.Full2Red, dm.NumFree())
	return kred, fred, b
}

func TestSABuildsWorkingHierarchy(t *testing.T) {
	kred, fred, b := buildElasticity(t, 6)
	rs, err := BuildRestrictions(kred, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < 1 {
		t.Fatal("no levels")
	}
	mg, _, err := multigrid.Build(nil, kred, rs, multigrid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, kred.NRows)
	res := krylov.FPCG(kred, fred, x, mg, 1e-8, 300)
	if !res.Converged {
		t.Fatalf("SA-preconditioned CG stalled after %d its", res.Iterations)
	}
	t.Logf("SA: %d levels, %d iterations", mg.NumLevels(), res.Iterations)
	if res.Iterations > 100 {
		t.Fatalf("SA hierarchy too weak: %d its", res.Iterations)
	}
}

func TestSAOnScalarProblem(t *testing.T) {
	a := laplace3D(8)
	rs, err := BuildRestrictions(a, Constants(a.NRows))
	if err != nil {
		t.Fatal(err)
	}
	mg, _, err := multigrid.Build(nil, a, rs, multigrid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bvec := make([]float64, a.NRows)
	for i := range bvec {
		bvec[i] = math.Sin(float64(i))
	}
	x := make([]float64, a.NRows)
	res := krylov.FPCG(a, bvec, x, mg, 1e-8, 200)
	if !res.Converged || res.Iterations > 40 {
		t.Fatalf("scalar SA: converged=%v its=%d", res.Converged, res.Iterations)
	}
}

func TestBuildRestrictionsValidation(t *testing.T) {
	a := laplace3D(3)
	wrong := la.NewDense(5, 1)
	if _, err := BuildRestrictions(a, wrong); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	// Already coarse enough: no levels -> error.
	small := laplace3D(2)
	if _, err := BuildRestrictions(small, Constants(small.NRows)); err == nil {
		t.Fatal("expected no-levels error")
	}
}

func TestRigidBodyModesCentroid(t *testing.T) {
	coords := []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: 2, Y: 2, Z: 3}}
	full2red := []int{0, 1, 2, 3, 4, 5}
	b := RigidBodyModes(coords, full2red, 6)
	// Translation modes are unit indicator patterns.
	if b.At(0, 0) != 1 || b.At(1, 1) != 1 || b.At(2, 2) != 1 {
		t.Fatal("translations wrong")
	}
	// Rotation about z at vertex 0 (x-cx = -0.5, y-cy = 0): (0, -0.5·? ...)
	// mode 3 (r_z) gives (-y, x, 0) about the centroid: (-0, -0.5, 0).
	if math.Abs(b.At(0, 3)-0) > 1e-15 || math.Abs(b.At(1, 3)+0.5) > 1e-15 {
		t.Fatalf("rotation mode wrong: %v %v", b.At(0, 3), b.At(1, 3))
	}
}
