package fem

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/la"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/sparse"
)

func linearModels() []material.Model {
	return []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}
}

func TestHexShapePartitionOfUnity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		xi := geom.Vec3{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: rng.Float64()*2 - 1}
		n, dn := HexShape(xi)
		sum := 0.0
		var gsum geom.Vec3
		for a := 0; a < 8; a++ {
			sum += n[a]
			gsum = gsum.Add(dn[a])
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("sum N = %v", sum)
		}
		if gsum.Norm() > 1e-12 {
			t.Fatalf("sum dN = %v", gsum)
		}
	}
	// Kronecker property at the nodes.
	for a := 0; a < 8; a++ {
		n, _ := HexShape(hexNodes[a])
		for b := 0; b < 8; b++ {
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(n[b]-want) > 1e-12 {
				t.Fatalf("N%d at node %d = %v", b, a, n[b])
			}
		}
	}
}

func TestTetShape(t *testing.T) {
	n, dn := TetShape(geom.Vec3{X: 0.2, Y: 0.3, Z: 0.1})
	if math.Abs(n[0]+n[1]+n[2]+n[3]-1) > 1e-15 {
		t.Fatal("partition of unity")
	}
	g := dn[0].Add(dn[1]).Add(dn[2]).Add(dn[3])
	if g.Norm() > 1e-15 {
		t.Fatal("gradients must sum to zero")
	}
}

func TestJacobianUnitCube(t *testing.T) {
	// A unit cube element: J = I/2 scaled by half-extents (0.5), det = 1/8.
	m := mesh.StructuredHex(1, 1, 1, 1, 1, 1, nil)
	coords := make([]geom.Vec3, 8)
	for a, v := range m.Elems[0] {
		coords[a] = m.Coords[v]
	}
	_, dn := HexShape(geom.Vec3{})
	dndx := make([]geom.Vec3, 8)
	detJ := jacobian(coords, dn[:], dndx)
	if math.Abs(detJ-1.0/8) > 1e-14 {
		t.Fatalf("detJ = %v, want 1/8", detJ)
	}
	// dN/dx of node 0 at center: (-1/4, -1/4, -1/4) after mapping.
	if math.Abs(dndx[0].X+0.25) > 1e-14 {
		t.Fatalf("dndx[0] = %v", dndx[0])
	}
}

// applyLinearField returns u(x) = A·x + b as a dof vector.
func applyLinearField(m *mesh.Mesh, a [3][3]float64, b geom.Vec3) []float64 {
	u := make([]float64, m.NumDOF())
	for v, p := range m.Coords {
		u[3*v] = a[0][0]*p.X + a[0][1]*p.Y + a[0][2]*p.Z + b.X
		u[3*v+1] = a[1][0]*p.X + a[1][1]*p.Y + a[1][2]*p.Z + b.Y
		u[3*v+2] = a[2][0]*p.X + a[2][1]*p.Y + a[2][2]*p.Z + b.Z
	}
	return u
}

func TestRigidBodyModes(t *testing.T) {
	m := mesh.StructuredHex(2, 2, 2, 1.3, 0.9, 1.1, nil)
	p := NewProblem(m, linearModels(), false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	if !k.IsSymmetric(1e-10) {
		t.Fatal("K not symmetric")
	}
	// Translations and infinitesimal rotations are in the null space.
	modes := [][3][3]float64{
		{},                                 // translation handled by b
		{{0, -1, 0}, {1, 0, 0}, {0, 0, 0}}, // rot z
		{{0, 0, 1}, {0, 0, 0}, {-1, 0, 0}}, // rot y
		{{0, 0, 0}, {0, 0, -1}, {0, 1, 0}}, // rot x
	}
	y := make([]float64, m.NumDOF())
	for i, a := range modes {
		b := geom.Vec3{}
		if i == 0 {
			b = geom.Vec3{X: 0.3, Y: -0.2, Z: 0.7}
		}
		u := applyLinearField(m, a, b)
		k.MulVec(u, y)
		if r := la.MaxAbs(y); r > 1e-12 {
			t.Fatalf("mode %d not in null space: |K·u| = %v", i, r)
		}
	}
}

func TestPatchTestConstantStrain(t *testing.T) {
	// Linear displacement field => constant strain & stress; internal
	// forces must vanish at interior dofs (equilibrium of constant stress).
	m := mesh.StructuredHex(3, 3, 3, 1, 1, 1, nil)
	// Perturb interior vertices to make elements non-rectangular.
	rng := rand.New(rand.NewSource(2))
	facets := m.BoundaryFacets()
	ext := mesh.ExteriorVerts(m.NumVerts(), facets)
	for v := range m.Coords {
		if !ext[v] {
			m.Coords[v] = m.Coords[v].Add(geom.Vec3{
				X: (rng.Float64() - 0.5) * 0.1,
				Y: (rng.Float64() - 0.5) * 0.1,
				Z: (rng.Float64() - 0.5) * 0.1,
			})
		}
	}
	for _, bbar := range []bool{false, true} {
		p := NewProblem(m, linearModels(), bbar)
		a := [3][3]float64{{0.01, 0.002, 0}, {0.002, -0.005, 0.001}, {0, 0.001, 0.004}}
		u := applyLinearField(m, a, geom.Vec3{})
		_, fint, err := p.AssembleTangent(u)
		if err != nil {
			t.Fatal(err)
		}
		for v := range m.Coords {
			if ext[v] {
				continue
			}
			for c := 0; c < 3; c++ {
				if math.Abs(fint[3*v+c]) > 1e-12 {
					t.Fatalf("bbar=%v: interior residual at vert %d comp %d = %v", bbar, v, c, fint[3*v+c])
				}
			}
		}
	}
}

func TestTangentConsistencyFD(t *testing.T) {
	// K(u) must be the derivative of fint(u) — checked on the nonlinear
	// materials with a random displacement state.
	m := mesh.StructuredHex(2, 1, 1, 1, 1, 1, func(c geom.Vec3) int {
		if c.X < 0.5 {
			return 0
		}
		return 1
	})
	models := material.Database()
	p := NewProblem(m, models, true)
	rng := rand.New(rand.NewSource(3))
	u := make([]float64, m.NumDOF())
	for i := range u {
		u[i] = (rng.Float64() - 0.5) * 0.02
	}
	k, f0, err := p.AssembleTangent(u)
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-7
	for _, dof := range []int{0, 5, 13, 20, m.NumDOF() - 1} {
		up := append([]float64(nil), u...)
		up[dof] += h
		_, fp, err := p.AssembleTangent(up)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f0 {
			fd := (fp[i] - f0[i]) / h
			if math.Abs(fd-k.At(i, dof)) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("K(%d,%d) = %v, FD = %v", i, dof, k.At(i, dof), fd)
			}
		}
	}
}

func cubeWithBottomFixed(n int) (*mesh.Mesh, *Constraints) {
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	c := NewConstraints()
	for _, v := range m.VertsWhere(func(p geom.Vec3) bool { return p.Z == 0 }) {
		c.FixVert(v, 0, 0, 0)
	}
	return m, c
}

func TestReducedSystemSPD(t *testing.T) {
	m, c := cubeWithBottomFixed(2)
	p := NewProblem(m, linearModels(), false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	dm := c.NewDofMap(m.NumDOF())
	kr, _ := c.Reduce(k, dm)
	if kr.NRows != m.NumDOF()-3*9 {
		t.Fatalf("reduced size %d", kr.NRows)
	}
	if !kr.IsSymmetric(1e-10) {
		t.Fatal("reduced K not symmetric")
	}
	// SPD: dense Cholesky must succeed.
	d := la.NewDense(kr.NRows, kr.NCols)
	for i := 0; i < kr.NRows; i++ {
		cols, vals := kr.Row(i)
		for kk, j := range cols {
			d.Set(i, j, vals[kk])
		}
	}
	if _, err := la.NewCholesky(d); err != nil {
		t.Fatalf("reduced K not SPD: %v", err)
	}
}

func TestPrescribedDisplacementSolve(t *testing.T) {
	// Uniaxial compression of a single-material cube by prescribed top
	// displacement with roller sides: the strain field is homogeneous,
	// eps_zz = delta / L, and lateral strains are zero (confined), so
	// sigma_zz = (lambda + 2 mu) eps_zz.
	n := 2
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	c := NewConstraints()
	delta := -0.01
	for v, pnt := range m.Coords {
		if pnt.Z == 0 {
			c.FixDof(3*v+2, 0)
		}
		if pnt.Z == 1 {
			c.FixDof(3*v+2, delta)
		}
		if pnt.X == 0 || pnt.X == 1 {
			c.FixDof(3*v, 0)
		}
		if pnt.Y == 0 || pnt.Y == 1 {
			c.FixDof(3*v+1, 0)
		}
	}
	p := NewProblem(m, linearModels(), false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	dm := c.NewDofMap(m.NumDOF())
	f := make([]float64, m.NumDOF())
	kr, fr := ReduceLoad(c, k, f, dm)
	// Direct dense solve of the reduced system.
	d := la.NewDense(kr.NRows, kr.NCols)
	for i := 0; i < kr.NRows; i++ {
		cols, vals := kr.Row(i)
		for kk, j := range cols {
			d.Set(i, j, vals[kk])
		}
	}
	chol, err := la.NewCholesky(d)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, kr.NRows)
	chol.Solve(fr, x)
	full := make([]float64, m.NumDOF())
	c.Expand(x, dm, full)
	// Check: mid-plane vertices move by delta/2 in z.
	for v, pnt := range m.Coords {
		if pnt.Z == 0.5 {
			if math.Abs(full[3*v+2]-delta/2) > 1e-10 {
				t.Fatalf("u_z at mid vertex %d = %v, want %v", v, full[3*v+2], delta/2)
			}
		}
	}
}

func TestBBarRelievesLocking(t *testing.T) {
	// Near-incompressible bending: B-bar must be significantly more
	// compliant than the plain displacement element.
	models := []material.Model{material.LinearElastic{E: 1, Nu: 0.499}}
	tip := func(bbar bool) float64 {
		m := mesh.StructuredHex(6, 1, 1, 6, 1, 1, nil)
		c := NewConstraints()
		for _, v := range m.VertsWhere(func(p geom.Vec3) bool { return p.X == 0 }) {
			c.FixVert(v, 0, 0, 0)
		}
		p := NewProblem(m, models, bbar)
		k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
		if err != nil {
			t.Fatal(err)
		}
		f := make([]float64, m.NumDOF())
		for _, v := range m.VertsWhere(func(p geom.Vec3) bool { return p.X == 6 }) {
			f[3*v+2] = -0.0001
		}
		dm := c.NewDofMap(m.NumDOF())
		kr, fr := ReduceLoad(c, k, f, dm)
		d := la.NewDense(kr.NRows, kr.NCols)
		for i := 0; i < kr.NRows; i++ {
			cols, vals := kr.Row(i)
			for kk, j := range cols {
				d.Set(i, j, vals[kk])
			}
		}
		chol, err := la.NewCholesky(d)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, kr.NRows)
		chol.Solve(fr, x)
		full := make([]float64, m.NumDOF())
		c.Expand(x, dm, full)
		tipVerts := m.VertsWhere(func(p geom.Vec3) bool { return p.X == 6 })
		s := 0.0
		for _, v := range tipVerts {
			s += full[3*v+2]
		}
		return s / float64(len(tipVerts))
	}
	plain := tip(false)
	bbar := tip(true)
	if math.Abs(bbar) < 1.5*math.Abs(plain) {
		t.Fatalf("B-bar should relieve locking: plain %v, bbar %v", plain, bbar)
	}
}

func TestCommitAndPlasticFraction(t *testing.T) {
	m := mesh.StructuredHex(1, 1, 1, 1, 1, 1, func(geom.Vec3) int { return 0 })
	models := []material.Model{material.J2Plasticity{E: 1, Nu: 0.3, SigmaY: 1e-4, H: 0.002}}
	p := NewProblem(m, models, false)
	if p.PlasticFraction(0) != 0 {
		t.Fatal("fresh problem should be elastic")
	}
	// Shear the cube far beyond yield.
	u := make([]float64, m.NumDOF())
	for v, pnt := range m.Coords {
		u[3*v] = 0.05 * pnt.Z
	}
	if err := p.Commit(u); err != nil {
		t.Fatal(err)
	}
	if p.PlasticFraction(0) != 1 {
		t.Fatalf("plastic fraction = %v, want 1", p.PlasticFraction(0))
	}
	if p.PlasticFraction(7) != 0 {
		t.Fatal("unknown material id should report 0")
	}
}

func TestConstraintsHelpers(t *testing.T) {
	c := NewConstraints()
	c.FixVert(2, 1, 2, 3)
	s := c.Scaled(0.5)
	if s.Fixed[6] != 0.5 || s.Fixed[8] != 1.5 {
		t.Fatalf("scaled = %v", s.Fixed)
	}
	// The homogeneous set fixes the same dofs at +0, a negative value too.
	neg := c.Scaled(-1)
	z := neg.Homogeneous()
	if len(z.Fixed) != len(neg.Fixed) || neg.Fixed[6] != -1 {
		t.Fatalf("homogeneous = %v of %v", z.Fixed, neg.Fixed)
	}
	for d := range neg.Fixed {
		if v, ok := z.Fixed[d]; !ok || math.Float64bits(v) != 0 {
			t.Fatalf("homogeneous dof %d = %v (fixed %v), want +0", d, v, ok)
		}
	}
	dm := c.NewDofMap(12)
	if dm.NumFree() != 9 {
		t.Fatalf("free = %d", dm.NumFree())
	}
	full := make([]float64, 12)
	red := make([]float64, 9)
	for i := range red {
		red[i] = float64(i + 1)
	}
	c.Expand(red, dm, full)
	if full[6] != 1 || full[7] != 2 || full[8] != 3 {
		t.Fatalf("expand lost prescribed values: %v", full)
	}
	for r, d := range dm.Red2Full {
		if full[d] != red[r] {
			t.Fatal("expand lost a free value")
		}
	}
}

func TestAssembleFlopsCounted(t *testing.T) {
	m := mesh.StructuredHex(2, 2, 2, 1, 1, 1, nil)
	p := NewProblem(m, linearModels(), false)
	_, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	if p.AssembleFlops <= 0 {
		t.Fatal("assembly flops not counted")
	}
}

func TestGalerkinOnFEMatrix(t *testing.T) {
	// Integration smoke test: a Galerkin coarse operator of the FE matrix
	// stays symmetric.
	m, c := cubeWithBottomFixed(2)
	p := NewProblem(m, linearModels(), false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	dm := c.NewDofMap(m.NumDOF())
	kr, _ := c.Reduce(k, dm)
	// Injection restriction on every third free dof.
	var rows [][2]int
	for r := 0; r < kr.NRows/3; r++ {
		rows = append(rows, [2]int{r, 3 * r})
	}
	rb := sparse.NewBuilder(len(rows), kr.NRows)
	for _, rc := range rows {
		rb.Add(rc[0], rc[1], 1)
	}
	coarse := sparse.Galerkin(rb.Build(), kr)
	if !coarse.IsSymmetric(1e-10) {
		t.Fatal("Galerkin coarse FE operator not symmetric")
	}
}

// withProcs runs f with GOMAXPROCS set to n. The shared worker set follows
// GOMAXPROCS, so n = 1 is the serial path and larger n runs the pooled one
// whatever this host has.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestParallelAssemblyMatchesSerial(t *testing.T) {
	m := mesh.StructuredHex(4, 4, 4, 1, 1, 1, func(c geom.Vec3) int {
		if c.X < 0.5 {
			return 0
		}
		return 1
	})
	models := material.Database()
	rng := rand.New(rand.NewSource(9))
	u := make([]float64, m.NumDOF())
	for i := range u {
		u[i] = (rng.Float64() - 0.5) * 0.01
	}
	serial := NewProblem(m, models, true)
	var kS *sparse.CSR
	var fS []float64
	var err error
	withProcs(1, func() { kS, fS, err = serial.AssembleTangent(u) })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par := NewProblem(m, models, true)
		var kP *sparse.CSR
		var fP []float64
		withProcs(workers, func() { kP, fP, err = par.AssembleTangent(u) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if kP.NNZ() != kS.NNZ() {
			t.Fatalf("workers=%d: nnz %d vs %d", workers, kP.NNZ(), kS.NNZ())
		}
		for i := range kS.Val {
			if kS.Val[i] != kP.Val[i] || kS.ColIdx[i] != kP.ColIdx[i] {
				t.Fatalf("workers=%d: matrix differs at entry %d", workers, i)
			}
		}
		for i := range fS {
			if fS[i] != fP[i] {
				t.Fatalf("workers=%d: fint differs at %d", workers, i)
			}
		}
		if par.AssembleFlops != serial.AssembleFlops {
			t.Fatalf("flop counts differ: %d vs %d", par.AssembleFlops, serial.AssembleFlops)
		}
	}
}

func TestParallelCommitMatchesSerial(t *testing.T) {
	m := mesh.StructuredHex(3, 3, 3, 1, 1, 1, nil)
	models := []material.Model{material.J2Plasticity{E: 1, Nu: 0.3, SigmaY: 1e-4, H: 0.002}}
	rng := rand.New(rand.NewSource(12))
	u := make([]float64, m.NumDOF())
	for i := range u {
		u[i] = (rng.Float64() - 0.5) * 0.01
	}
	serial := NewProblem(m, models, true)
	par := NewProblem(m, models, true)
	var errS, errP error
	withProcs(1, func() { errS = serial.Commit(u) })
	withProcs(5, func() { errP = par.Commit(u) })
	if errS != nil || errP != nil {
		t.Fatal(errS, errP)
	}
	for e := range serial.States {
		for g := range serial.States[e] {
			if serial.States[e][g] != par.States[e][g] {
				t.Fatalf("state mismatch at elem %d gp %d", e, g)
			}
		}
	}
	if serial.PlasticFraction(0) != par.PlasticFraction(0) {
		t.Fatal("plastic fractions differ")
	}
}

// TestAssembleRejectsNonFiniteCoords: a NaN Jacobian fails `detJ <= 0`
// silently, and the mesh would assemble into a NaN matrix.
func TestAssembleRejectsNonFiniteCoords(t *testing.T) {
	for name, bad := range map[string]float64{"NaN": math.NaN(), "Inf": math.Inf(1)} {
		for _, workers := range []int{1, 2} {
			m := mesh.StructuredHex(3, 3, 3, 1, 1, 1, nil)
			m.Coords[13].Y = bad
			p := NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
			var err error
			withProcs(workers, func() { _, _, err = p.AssembleTangent(make([]float64, m.NumDOF())) })
			if err == nil || !strings.Contains(err.Error(), "non-positive Jacobian") {
				t.Fatalf("%s coordinate, workers=%d: err = %v, want the non-positive Jacobian error", name, workers, err)
			}
		}
	}
}
