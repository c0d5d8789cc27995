package fem

import (
	"math"
	"math/rand"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/la"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/sparse"
)

func TestHex20ShapePartitionOfUnity(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 80; trial++ {
		xi := geom.Vec3{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: rng.Float64()*2 - 1}
		n, dn := Hex20Shape(xi)
		sum := 0.0
		var gsum geom.Vec3
		for a := 0; a < 20; a++ {
			sum += n[a]
			gsum = gsum.Add(dn[a])
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("sum N = %v at %v", sum, xi)
		}
		if gsum.Norm() > 1e-12 {
			t.Fatalf("sum dN = %v at %v", gsum, xi)
		}
	}
}

// hex20RefNodes returns the 20 reference coordinates in connectivity order.
func hex20RefNodes() [20]geom.Vec3 {
	var out [20]geom.Vec3
	copy(out[:8], hexNodes[:])
	for e, pair := range hex20Mid {
		out[8+e] = hexNodes[pair[0]].Add(hexNodes[pair[1]]).Scale(0.5)
	}
	return out
}

func TestHex20ShapeKronecker(t *testing.T) {
	nodes := hex20RefNodes()
	for a := 0; a < 20; a++ {
		n, _ := Hex20Shape(nodes[a])
		for b := 0; b < 20; b++ {
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(n[b]-want) > 1e-12 {
				t.Fatalf("N%d at node %d = %v, want %v", b, a, n[b], want)
			}
		}
	}
}

func TestHex20ShapeGradientFD(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	h := 1e-6
	for trial := 0; trial < 20; trial++ {
		xi := geom.Vec3{X: rng.Float64()*1.8 - 0.9, Y: rng.Float64()*1.8 - 0.9, Z: rng.Float64()*1.8 - 0.9}
		_, dn := Hex20Shape(xi)
		for a := 0; a < 20; a++ {
			np, _ := Hex20Shape(geom.Vec3{X: xi.X + h, Y: xi.Y, Z: xi.Z})
			nm, _ := Hex20Shape(geom.Vec3{X: xi.X - h, Y: xi.Y, Z: xi.Z})
			if fd := (np[a] - nm[a]) / (2 * h); math.Abs(fd-dn[a].X) > 1e-6 {
				t.Fatalf("dN%d/dx = %v, FD %v", a, dn[a].X, fd)
			}
			np, _ = Hex20Shape(geom.Vec3{X: xi.X, Y: xi.Y + h, Z: xi.Z})
			nm, _ = Hex20Shape(geom.Vec3{X: xi.X, Y: xi.Y - h, Z: xi.Z})
			if fd := (np[a] - nm[a]) / (2 * h); math.Abs(fd-dn[a].Y) > 1e-6 {
				t.Fatalf("dN%d/dy = %v, FD %v", a, dn[a].Y, fd)
			}
			np, _ = Hex20Shape(geom.Vec3{X: xi.X, Y: xi.Y, Z: xi.Z + h})
			nm, _ = Hex20Shape(geom.Vec3{X: xi.X, Y: xi.Y, Z: xi.Z - h})
			if fd := (np[a] - nm[a]) / (2 * h); math.Abs(fd-dn[a].Z) > 1e-6 {
				t.Fatalf("dN%d/dz = %v, FD %v", a, dn[a].Z, fd)
			}
		}
	}
}

func TestHex20ReproducesQuadraticField(t *testing.T) {
	// Serendipity elements reproduce complete quadratics: interpolating
	// f(x) = x² + 2xy - z² + 3y at the nodes must give the exact value at
	// interior points of the reference element.
	f := func(p geom.Vec3) float64 { return p.X*p.X + 2*p.X*p.Y - p.Z*p.Z + 3*p.Y }
	nodes := hex20RefNodes()
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		xi := geom.Vec3{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: rng.Float64()*2 - 1}
		n, _ := Hex20Shape(xi)
		got := 0.0
		for a := 0; a < 20; a++ {
			got += n[a] * f(nodes[a])
		}
		if math.Abs(got-f(xi)) > 1e-12 {
			t.Fatalf("quadratic not reproduced at %v: %v vs %v", xi, got, f(xi))
		}
	}
}

func TestHex20StructuredMesh(t *testing.T) {
	m := mesh.StructuredHex20(2, 2, 2, 1, 1, 1, nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3³ corners + shared midside nodes: edges x: 2*3*3=18, y: 18, z: 18.
	if m.NumVerts() != 27+54 {
		t.Fatalf("verts = %d, want 81", m.NumVerts())
	}
	if m.NumElems() != 8 {
		t.Fatalf("elems = %d", m.NumElems())
	}
	// Boundary facets: 6 faces × 4 facets, 8 nodes each.
	facets := m.BoundaryFacets()
	if len(facets) != 24 {
		t.Fatalf("facets = %d", len(facets))
	}
	for _, f := range facets {
		if len(f.Verts) != 8 {
			t.Fatalf("facet has %d verts", len(f.Verts))
		}
	}
}

func TestHex20RigidBodyAndPatch(t *testing.T) {
	m := mesh.StructuredHex20(2, 1, 1, 2, 1, 1, nil)
	p := NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	if !k.IsSymmetric(1e-9) {
		t.Fatal("K not symmetric")
	}
	// Rigid modes in the kernel.
	u := make([]float64, m.NumDOF())
	y := make([]float64, m.NumDOF())
	for v, pt := range m.Coords {
		u[3*v] = 0.3 - pt.Y // translation + rotation about z
		u[3*v+1] = pt.X
		u[3*v+2] = -0.1
	}
	k.MulVec(u, y)
	if la.MaxAbs(y) > 1e-10 {
		t.Fatalf("rigid mode residual %v", la.MaxAbs(y))
	}
	// Constant-strain patch: interior nodal equilibrium under a linear
	// displacement field.
	for v, pt := range m.Coords {
		u[3*v] = 0.01*pt.X + 0.002*pt.Y
		u[3*v+1] = -0.005 * pt.Y
		u[3*v+2] = 0.004*pt.Z + 0.001*pt.Y
	}
	_, fint, err := p.AssembleTangent(u)
	if err != nil {
		t.Fatal(err)
	}
	facets := m.BoundaryFacets()
	ext := mesh.ExteriorVerts(m.NumVerts(), facets)
	for v := range m.Coords {
		if ext[v] {
			continue
		}
		for c := 0; c < 3; c++ {
			if math.Abs(fint[3*v+c]) > 1e-11 {
				t.Fatalf("interior residual at %d.%d = %v", v, c, fint[3*v+c])
			}
		}
	}
}

func TestHex20BendingBeatsHex8(t *testing.T) {
	// Quadratic elements resolve bending far better than trilinear ones on
	// the same coarse mesh: the Hex20 cantilever tip deflection must exceed
	// the (overly stiff) Hex8 one and be close to a refined reference.
	tip := func(m *mesh.Mesh) float64 {
		p := NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
		k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
		if err != nil {
			t.Fatal(err)
		}
		c := NewConstraints()
		f := make([]float64, m.NumDOF())
		nTip := 0
		for v, pt := range m.Coords {
			if pt.X == 0 {
				c.FixVert(v, 0, 0, 0)
			}
			if pt.X == 5 {
				f[3*v+2] = -1e-4
				nTip++
			}
		}
		dm := c.NewDofMap(m.NumDOF())
		kred, fred := ReduceLoad(c, k, f, dm)
		ch := mustChol(t, kred)
		x := make([]float64, kred.NRows)
		ch.Solve(fred, x)
		full := make([]float64, m.NumDOF())
		c.Expand(x, dm, full)
		s := 0.0
		for v, pt := range m.Coords {
			if pt.X == 5 {
				s += full[3*v+2]
			}
		}
		return s / float64(nTip) / float64(nTip) // normalize per-node load effect
	}
	h8 := tip(mesh.StructuredHex(5, 1, 1, 5, 1, 1, nil))
	h20 := tip(mesh.StructuredHex20(5, 1, 1, 5, 1, 1, nil))
	if math.Abs(h20) < 1.2*math.Abs(h8) {
		t.Fatalf("Hex20 should be much softer in bending: %v vs %v", h20, h8)
	}
}

func TestHex20BBarAndPlasticity(t *testing.T) {
	// The generic element machinery (B-bar, J2 state per Gauss point) must
	// work for the quadratic element too.
	m := mesh.StructuredHex20(1, 1, 1, 1, 1, 1, nil)
	p := NewProblem(m, []material.Model{material.J2Plasticity{E: 1, Nu: 0.49, SigmaY: 1e-4, H: 0.002}}, true)
	if len(p.States[0]) != len(HexGauss3) {
		t.Fatalf("states per elem = %d, want %d", len(p.States[0]), len(HexGauss3))
	}
	u := make([]float64, m.NumDOF())
	for v, pt := range m.Coords {
		u[3*v] = 0.01 * pt.Z // strong shear
	}
	if err := p.Commit(u); err != nil {
		t.Fatal(err)
	}
	if p.PlasticFraction(0) == 0 {
		t.Fatal("no yielding recorded")
	}
}

// mustChol factors a reduced operator as a dense matrix, an oracle that
// shares no ordering or envelope with the multigrid's coarse solve.
func mustChol(t *testing.T, k *sparse.CSR) *la.Cholesky {
	t.Helper()
	d := la.NewDense(k.NRows, k.NCols)
	for i := 0; i < k.NRows; i++ {
		cols, vals := k.Row(i)
		for p, j := range cols {
			d.Set(i, j, vals[p])
		}
	}
	ch, err := la.NewCholesky(d)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}
