package sparse

import (
	"math"
	"math/rand"
	"testing"

	"prometheus/internal/pool"
)

// TestToCSR32RoundTrip checks that narrowing stores exactly the f32
// rounding of every entry (at most half a float32 ULP away from the f64
// source) and that the structure survives bitwise.
func TestToCSR32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randCSR(rng, 120, 90, 0.08)
	a32 := ToCSR32(a)
	if a32.NRows != a.NRows || a32.NCols != a.NCols || a32.NNZ() != a.NNZ() {
		t.Fatalf("shape changed: %dx%d nnz %d", a32.NRows, a32.NCols, a32.NNZ())
	}
	for k, v := range a.Val {
		if int(a32.ColIdx[k]) != a.ColIdx[k] {
			t.Fatalf("column index %d changed", k)
		}
		if a32.Val[k] != float32(v) {
			t.Fatalf("entry %d: stored %v, want rounding of %g", k, a32.Val[k], v)
		}
		if w := float64(a32.Val[k]); math.Abs(w-v) > math.Abs(v)/(1<<24) {
			t.Fatalf("entry %d: round-trip error %g beyond half a float32 ULP of %g", k, w-v, v)
		}
	}
	back := a32.ToCSR()
	for k := range back.Val {
		if back.Val[k] != float64(a32.Val[k]) {
			t.Fatalf("widening entry %d is not exact", k)
		}
	}
}

// TestCSR32MulVecMatchesWidenedCSR locks in the kernel's arithmetic
// model: the f32 kernel widens each stored operand and accumulates in
// f64, which is exactly what the f64 CSR kernel does on the widened
// matrix — so the two products are bitwise identical.
func TestCSR32MulVecMatchesWidenedCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a32 := ToCSR32(randCSR(rng, 200, 200, 0.05))
	wide := a32.ToCSR()
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 200)
	want := make([]float64, 200)
	a32.MulVec(x, got)
	wide.MulVec(x, want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: %v != widened CSR's %v", i, got[i], want[i])
		}
	}
	// The row-partitioned kernel over a three-way split must agree bitwise.
	ranged := make([]float64, 200)
	a32.MulVecRange(x, ranged, 0, 70)
	a32.MulVecRange(x, ranged, 70, 150)
	a32.MulVecRange(x, ranged, 150, 200)
	for i := range ranged {
		if math.Float64bits(ranged[i]) != math.Float64bits(got[i]) {
			t.Fatalf("MulVecRange row %d: %v != %v", i, ranged[i], got[i])
		}
	}
	// Residual consistency: r = b - A·x.
	b := make([]float64, 200)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	r := make([]float64, 200)
	a32.Residual(b, x, r)
	for i := range r {
		if math.Float64bits(r[i]) != math.Float64bits(b[i]-got[i]) {
			t.Fatalf("Residual row %d: %v != %v", i, r[i], b[i]-got[i])
		}
	}
}

// TestBSR32MatchesWidenedBSR checks the blocked f32 kernels (register
// 3x3 fast path and the generic path) bitwise against the f64 BSR kernel
// on the widened matrix, plus the aligned and ragged MulVecRange paths.
func TestBSR32MatchesWidenedBSR(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, b := range []int{3, 4} {
		a32 := ToBSR32(randBSR(rng, 40, 40, b, 0.1))
		wide := a32.ToBSR()
		n := a32.Rows()
		x := make([]float64, a32.Cols())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		want := make([]float64, n)
		a32.MulVec(x, got)
		wide.MulVec(x, want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("b=%d row %d: %v != widened BSR's %v", b, i, got[i], want[i])
			}
		}
		// Block-aligned split hits the fast path; the off-block split
		// exercises the ragged per-scalar-row fallback.
		for _, splits := range [][]int{{0, 2 * b, n}, {0, b + 1, n - 1, n}} {
			ranged := make([]float64, n)
			for s := 0; s+1 < len(splits); s++ {
				a32.MulVecRange(x, ranged, splits[s], splits[s+1])
			}
			for i := range ranged {
				if math.Float64bits(ranged[i]) != math.Float64bits(got[i]) {
					t.Fatalf("b=%d splits %v row %d: %v != %v", b, splits, i, ranged[i], got[i])
				}
			}
		}
	}
}

// TestF32At checks At and Diag on both narrowed storages against the
// widened reference.
func TestF32At(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a32 := ToCSR32(randCSR(rng, 50, 50, 0.1))
	ref := a32.ToCSR()
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if a32.At(i, j) != ref.At(i, j) {
				t.Fatalf("CSR32.At(%d,%d) = %v, want %v", i, j, a32.At(i, j), ref.At(i, j))
			}
		}
	}
	d, dr := a32.Diag(), ref.Diag()
	for i := range d {
		if d[i] != dr[i] {
			t.Fatalf("CSR32.Diag[%d] = %v, want %v", i, d[i], dr[i])
		}
	}
	b32 := ToBSR32(randBSR(rng, 15, 15, 3, 0.2))
	bref := b32.ToCSR()
	for i := 0; i < b32.Rows(); i++ {
		for j := 0; j < b32.Cols(); j++ {
			if b32.At(i, j) != bref.At(i, j) {
				t.Fatalf("BSR32.At(%d,%d) = %v, want %v", i, j, b32.At(i, j), bref.At(i, j))
			}
		}
	}
}

// TestF32MulVecParallelBitwise extends the PR 6 ownership guarantee to
// the narrowed storages: the pool-partitioned product is bitwise equal to
// the serial one for every worker count.
func TestF32MulVecParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	csr, bsr := randomBlocked(t, 67, 3, rng)
	c32, b32 := ToCSR32(csr), ToBSR32(bsr)
	n := csr.NRows
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	wantC := make([]float64, n)
	c32.MulVec(x, wantC)
	wantB := make([]float64, n)
	b32.MulVec(x, wantB)

	for _, nw := range []int{1, 2, 3, 4, 8} {
		p := pool.New(nw)
		got := make([]float64, n)
		c32.MulVecParallel(p, x, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantC[i]) {
				t.Fatalf("CSR32 nw=%d row %d: %v != %v", nw, i, got[i], wantC[i])
			}
		}
		b32.MulVecParallel(p, x, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantB[i]) {
				t.Fatalf("BSR32 nw=%d row %d: %v != %v", nw, i, got[i], wantB[i])
			}
		}
		p.Close()
	}
}

// TestStorageBytes pins the bytes-per-storage accounting behind the
// bytes/dof gates (TestMixedNarrowsCoarseLevels, TestStorageParityMF):
// f32 storage must halve the per-entry footprint (8 -> 4 value bytes,
// 8 -> 4 index bytes).
func TestStorageBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := randCSR(rng, 60, 60, 0.1)
	nnz := int64(a.NNZ())
	rows := int64(a.NRows)
	if got, want := StorageBytes(a), 16*nnz+8*(rows+1); got != want {
		t.Fatalf("StorageBytes(CSR) = %d, want %d", got, want)
	}
	if got, want := StorageBytes(ToCSR32(a)), 8*nnz+8*(rows+1); got != want {
		t.Fatalf("StorageBytes(CSR32) = %d, want %d", got, want)
	}
	bsr := randBSR(rng, 20, 20, 3, 0.2)
	nb := int64(len(bsr.ColIdx))
	if got, want := StorageBytes(bsr), 72*nb+8*nb+8*int64(bsr.NBRows+1); got != want {
		t.Fatalf("StorageBytes(BSR) = %d, want %d", got, want)
	}
	if got, want := StorageBytes(ToBSR32(bsr)), 36*nb+4*nb+8*int64(bsr.NBRows+1); got != want {
		t.Fatalf("StorageBytes(BSR32) = %d, want %d", got, want)
	}
}
