package fem

import (
	"math"
	"math/rand"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/mesh"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// ebeFixture is one randomized problem with both operator forms: the
// matrix-free EBE operator and its assembled reduced-CSR oracle.
type ebeFixture struct {
	op   *EBEOperator
	kred *sparse.CSR
	fred []float64 // oracle reduced rhs from Reduce (f = 0 load)
	dm   *DofMap
	n    int
}

// buildEBEFixture constructs a jittered hex or tet mesh with random
// Dirichlet values, assembles the reduced CSR through the existing
// pipeline and builds the matrix-free operator from the same problem.
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

// checkEBEParity compares the matrix-free and assembled products on one
// random vector. The bound is row-scaled: both operators sum identical
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
	// Diagonal parity under the same row-scaled bound.
	de := fx.op.Diag()
	da := fx.kred.Diag()
	for i := range de {
		if d := math.Abs(de[i] - da[i]); d > 1e-12*math.Abs(da[i])+1e-300 {
			t.Fatalf("diag %d: ebe %v vs assembled %v", i, de[i], da[i])
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

// TestEBELoadMap: the matrix-free load map applied at scale s is bit for
// bit the restricted scaled load minus the constraint force, one
// subtraction per free dof, at every scale the service is tested with.
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
// Dirichlet set falls out, the matrix-free product must match the
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

// TestEBEBitwisePaths locks in the structural-determinism claim: the
// colored serial scatter, the row-gather form (in arbitrary chunkings),
// the pool-parallel colored dispatch at every worker count, and a second
// run of each all produce bitwise identical results.
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
	fx.op.MulVec(x, again)
	for i := range ref {
		if ref[i] != again[i] {
			t.Fatalf("MulVec not run-to-run bitwise deterministic at %d", i)
		}
	}

	gather := make([]float64, fx.n)
	lo := 0
	for lo < fx.n {
		hi := lo + 1 + rng.Intn(7)
		if hi > fx.n {
			hi = fx.n
		}
		fx.op.MulVecRange(x, gather, lo, hi)
		lo = hi
	}
	for i := range ref {
		if ref[i] != gather[i] {
			t.Fatalf("MulVecRange diverges from MulVec at %d: %v vs %v", i, gather[i], ref[i])
		}
	}

	for nw := 1; nw <= 4; nw++ {
		p := pool.New(nw)
		par := make([]float64, fx.n)
		fx.op.MulVecParallel(p, x, par)
		for i := range ref {
			if ref[i] != par[i] {
				t.Fatalf("MulVecParallel(%d workers) diverges at %d: %v vs %v", nw, i, par[i], ref[i])
			}
		}
		p.Close()
	}

	// Residual consistency: r = b - A·x through the gather path.
	b := make([]float64, fx.n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	r := make([]float64, fx.n)
	fx.op.Residual(b, x, r)
	for i := range r {
		if want := b[i] - ref[i]; r[i] != want {
			t.Fatalf("Residual diverges at %d: %v vs %v", i, r[i], want)
		}
	}
}

// TestEBEColoringDisjoint verifies the coloring invariant the parallel
// scatter relies on: within each color, no reduced dof appears in two
// elements' write sets.
func TestEBEColoringDisjoint(t *testing.T) {
	fx := buildEBEFixture(t, 5)
	a := fx.op
	for c := 0; c < a.NumColors(); c++ {
		seen := make(map[int32]int32)
		for p := a.colorPtr[c]; p < a.colorPtr[c+1]; p++ {
			e := a.order[p]
			for _, d := range a.ws[a.wsPtr[e]:a.wsPtr[e+1]] {
				if prev, ok := seen[d]; ok {
					t.Fatalf("color %d: dof %d written by elements %d and %d", c, d, prev, e)
				}
				seen[d] = e
			}
		}
	}
}

// TestEBEApplyZeroAlloc locks in the allocation-free apply guarantee for
// the serial scatter, the row-gather and the pool-parallel paths (all
// element scratch lives on the kernel stack; the per-color batch
// interface values are precomputed at construction).
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
	if got := testing.AllocsPerRun(10, func() { fx.op.MulVecRange(x, y, 0, fx.n) }); got != 0 {
		t.Errorf("MulVecRange allocates %.1f per call, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() { fx.op.Residual(y, x, y) }); got != 0 {
		t.Errorf("Residual allocates %.1f per call, want 0", got)
	}
	p := pool.New(2)
	defer p.Close()
	if got := testing.AllocsPerRun(10, func() { fx.op.MulVecParallel(p, x, y) }); got != 0 {
		t.Errorf("MulVecParallel allocates %.1f per call, want 0", got)
	}
}

// TestEBEGalerkinParity compares the element-assembled Galerkin coarse
// operator against the sparse triple product R·K·Rᵀ of the assembled
// oracle, and verifies it is exactly symmetric.
func TestEBEGalerkinParity(t *testing.T) {
	fx := buildEBEFixture(t, 7)
	rng := rand.New(rand.NewSource(7))
	// A plausible restriction: each fine dof contributes to one or two of
	// ncoarse dofs with positive weights.
	ncoarse := fx.n/4 + 1
	rb := sparse.NewBuilder(ncoarse, fx.n)
	for j := 0; j < fx.n; j++ {
		c0 := j % ncoarse
		rb.Add(c0, j, 0.5+0.5*rng.Float64())
		if rng.Intn(2) == 0 {
			rb.Add((c0+1)%ncoarse, j, 0.25*rng.Float64())
		}
	}
	r := rb.Build()

	got := fx.op.AssembleGalerkin(r)
	want := sparse.Galerkin(r, fx.kred)
	if got.NRows != want.NRows || got.NCols != want.NCols {
		t.Fatalf("shape %dx%d vs %dx%d", got.NRows, got.NCols, want.NRows, want.NCols)
	}
	for i := 0; i < want.NRows; i++ {
		scale := 0.0
		cols, vals := want.Row(i)
		rowWant := make(map[int]float64, len(cols))
		for k, j := range cols {
			rowWant[j] = vals[k]
			scale += math.Abs(vals[k])
		}
		tol := 1e-11*scale + 1e-300
		gcols, gvals := got.Row(i)
		gotRow := make(map[int]float64, len(gcols))
		for k, j := range gcols {
			gotRow[j] = gvals[k]
		}
		for j, wv := range rowWant {
			if d := math.Abs(gotRow[j] - wv); d > tol {
				t.Fatalf("coarse (%d,%d): %v vs %v", i, j, gotRow[j], wv)
			}
		}
		for j, gv := range gotRow {
			if _, ok := rowWant[j]; !ok && math.Abs(gv) > tol {
				t.Fatalf("coarse (%d,%d): spurious %v", i, j, gv)
			}
		}
	}
	if !got.IsSymmetric(0) {
		t.Fatal("element-assembled Galerkin operator not exactly symmetric")
	}
}

// TestEBENodeKernels covers the distributed-apply surface: MulVecNodes
// must reproduce the serial product on any node subset, and NodeAdjacency
// must contain every coupling the gather structure uses.
func TestEBENodeKernels(t *testing.T) {
	fx := buildEBEFixture(t, 9)
	a := fx.op
	if a.DiagBlocks() == nil {
		t.Skip("fixture not node-aligned")
	}
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, fx.n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, fx.n)
	a.MulVec(x, ref)
	y := make([]float64, fx.n)
	var odd []int
	for nb := 1; nb < a.NumNodes(); nb += 2 {
		odd = append(odd, nb)
	}
	a.MulVecNodes(x, y, odd)
	for _, nb := range odd {
		for i := 0; i < 3; i++ {
			if y[3*nb+i] != ref[3*nb+i] {
				t.Fatalf("MulVecNodes diverges at node %d dof %d", nb, i)
			}
		}
	}
	adj, err := a.NodeAdjacency()
	if err != nil {
		t.Fatal(err)
	}
	if len(adj) != a.NumNodes() {
		t.Fatalf("adjacency has %d nodes, want %d", len(adj), a.NumNodes())
	}
	for nb, nbrs := range adj {
		found := false
		for _, v := range nbrs {
			if v == nb {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d missing self-coupling", nb)
		}
	}
}

// TestEBEStorageAccounting sanity-checks the byte accounting: dominated
// by the packed stiffnesses and strictly positive.
func TestEBEStorageAccounting(t *testing.T) {
	fx := buildEBEFixture(t, 11)
	b := fx.op.StorageBytes()
	packed := int64(8 * fx.op.ne * fx.op.packLen)
	if b < packed {
		t.Fatalf("StorageBytes %d below packed stiffness bytes %d", b, packed)
	}
	if fx.op.StorageLabel() != "mf" {
		t.Fatalf("label %q", fx.op.StorageLabel())
	}
	if fx.op.NNZ() != fx.op.ne*fx.op.packLen {
		t.Fatalf("NNZ %d", fx.op.NNZ())
	}
}
