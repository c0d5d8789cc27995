package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randBSR builds a random nbr x nbc block matrix with block size b and the
// given block density, plus guaranteed diagonal blocks when square.
func randBSR(rng *rand.Rand, nbr, nbc, b int, density float64) *BSR {
	bb := NewBlockBuilder(nbr, nbc, b)
	blk := make([]float64, b*b)
	fill := func(i, j int) {
		for t := range blk {
			blk[t] = rng.Float64()*2 - 1
		}
		bb.AddBlock(i, j, blk)
	}
	for i := 0; i < nbr; i++ {
		for j := 0; j < nbc; j++ {
			if rng.Float64() < density {
				fill(i, j)
			}
		}
		if nbr == nbc {
			fill(i, i)
		}
	}
	return bb.Build()
}

// TestBSRMulVecMatchesCSR is the ulp_equal_csr property from the blocked
// storage design: on a matrix assembled through blocks, the 3x3
// register-blocked kernel must reproduce the scalar CSR product to 0 ULP,
// because both sum the same values in the same left-to-right order. This
// is what makes BSR-by-default safe for the bitwise determinism test.
func TestBSRMulVecMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		a := randBSR(rng, n, n, 3, 0.3)
		c := a.ToCSR()
		x := make([]float64, a.Cols())
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		yb := make([]float64, a.Rows())
		yc := make([]float64, a.Rows())
		a.MulVec(x, yb)
		c.MulVec(x, yc)
		for i := range yb {
			if math.Float64bits(yb[i]) != math.Float64bits(yc[i]) {
				t.Fatalf("trial %d: BSR.MulVec differs from CSR at row %d: %x vs %x",
					trial, i, math.Float64bits(yb[i]), math.Float64bits(yc[i]))
			}
		}
		// Ragged scalar ranges must agree bitwise too.
		lo, hi := 1, a.Rows()-1
		if lo < hi {
			yb2 := make([]float64, a.Rows())
			yc2 := make([]float64, a.Rows())
			a.MulVecRange(x, yb2, lo, hi)
			c.MulVecRange(x, yc2, lo, hi)
			for i := lo; i < hi; i++ {
				if math.Float64bits(yb2[i]) != math.Float64bits(yc2[i]) {
					t.Fatalf("trial %d: MulVecRange differs at row %d", trial, i)
				}
			}
		}
	}
}

// TestBSRGenericBlockSize exercises the non-specialized kernel (B != 3)
// against the expanded CSR product.
func TestBSRGenericBlockSize(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, b := range []int{1, 2, 4} {
		n := 7
		a := randBSR(rng, n, n, b, 0.4)
		c := a.ToCSR()
		x := make([]float64, a.Cols())
		for i := range x {
			x[i] = rng.Float64()
		}
		yb := make([]float64, a.Rows())
		yc := make([]float64, a.Rows())
		a.MulVec(x, yb)
		c.MulVec(x, yc)
		for i := range yb {
			if math.Abs(yb[i]-yc[i]) > 1e-12 {
				t.Fatalf("B=%d: row %d: %g vs %g", b, i, yb[i], yc[i])
			}
		}
	}
}

// TestSharedAssemblyBlocking checks the assembly equivalence that lets fem
// emit blocks: feeding the same per-node-pair contributions to a scalar
// Builder and a BlockBuilder yields bitwise-identical scalar matrices, and
// FromCSR on the scalar result reproduces the blocked one exactly.
func TestSharedAssemblyBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const nodes, b = 12, 3
	sb := NewBuilder(nodes*b, nodes*b)
	blb := NewBlockBuilder(nodes, nodes, b)
	blk := make([]float64, b*b)
	for e := 0; e < 40; e++ {
		i, j := rng.Intn(nodes), rng.Intn(nodes)
		for t := range blk {
			blk[t] = rng.Float64()*2 - 1
		}
		for d := 0; d < b; d++ {
			for c := 0; c < b; c++ {
				sb.Add(b*i+d, b*j+c, blk[d*b+c])
			}
		}
		blb.AddBlock(i, j, blk)
	}
	scalar := sb.Build()
	blocked := blb.Build()

	exp := blocked.ToCSR()
	if exp.NNZ() != scalar.NNZ() {
		t.Fatalf("pattern mismatch: blocked expands to %d entries, scalar has %d", exp.NNZ(), scalar.NNZ())
	}
	for i := 0; i < scalar.NRows; i++ {
		ce, ve := exp.Row(i)
		cs, vs := scalar.Row(i)
		for k := range ce {
			if ce[k] != cs[k] || math.Float64bits(ve[k]) != math.Float64bits(vs[k]) {
				t.Fatalf("row %d entry %d differs: (%d,%x) vs (%d,%x)",
					i, k, ce[k], math.Float64bits(ve[k]), cs[k], math.Float64bits(vs[k]))
			}
		}
	}

	back, err := FromCSR(scalar, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bsrEqual(back, blocked) {
		t.Fatal("FromCSR(scalar assembly) does not reproduce the BlockBuilder matrix")
	}
}

func bsrEqual(a, b *BSR) bool {
	if a.NBRows != b.NBRows || a.NBCols != b.NBCols || a.B != b.B ||
		len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// TestNodeWeightsExpandBlocks: NodeWeights recognizes exactly the w·I
// restrictions ExpandBlocks produces, and the round trip is bitwise.
func TestNodeWeightsExpandBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	rn := randCSR(rng, 6, 15, 0.3)
	r := ExpandBlocks(rn, 3)
	got, ok := NodeWeights(r, 3)
	if !ok {
		t.Fatal("NodeWeights rejected a conforming expansion")
	}
	if got.NRows != rn.NRows || got.NCols != rn.NCols || got.NNZ() != rn.NNZ() {
		t.Fatalf("round-trip shape mismatch: %dx%d/%d vs %dx%d/%d",
			got.NRows, got.NCols, got.NNZ(), rn.NRows, rn.NCols, rn.NNZ())
	}
	for i := 0; i < rn.NRows; i++ {
		cg, vg := got.Row(i)
		cw, vw := rn.Row(i)
		for k := range cg {
			if cg[k] != cw[k] || math.Float64bits(vg[k]) != math.Float64bits(vw[k]) {
				t.Fatalf("node weight (%d,%d) differs", i, cg[k])
			}
		}
	}

	// A restriction with an off-component entry is not conforming.
	bad := r.Clone()
	bb := NewBuilder(r.NRows, r.NCols)
	for i := 0; i < bad.NRows; i++ {
		cols, vals := bad.Row(i)
		for k := range cols {
			bb.Add(i, cols[k], vals[k])
		}
	}
	bb.Add(0, 1, 0.25) // couples component 0 to component 1
	if _, ok := NodeWeights(bb.Build(), 3); ok {
		t.Fatal("NodeWeights accepted a component-coupling restriction")
	}
}

// TestGalerkinBSRMatchesScalar: the blocked triple product agrees with the
// scalar Galerkin product entrywise to rounding, has the same block-row
// dimensions, and stays in BSR for conforming restrictions.
func TestGalerkinBSRMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const nf, nc, b = 14, 5, 3
	// Symmetric block fine operator.
	bb := NewBlockBuilder(nf, nf, b)
	blk := make([]float64, b*b)
	blkT := make([]float64, b*b)
	for e := 0; e < 50; e++ {
		i, j := rng.Intn(nf), rng.Intn(nf)
		for t := range blk {
			blk[t] = rng.Float64()*2 - 1
		}
		for d := 0; d < b; d++ {
			for c := 0; c < b; c++ {
				blkT[c*b+d] = blk[d*b+c]
			}
		}
		bb.AddBlock(i, j, blk)
		bb.AddBlock(j, i, blkT)
	}
	a := bb.Build()
	rn := randCSR(rng, nc, nf, 0.4)
	r := ExpandBlocks(rn, b)

	coarse := GalerkinBSR(r, a)
	cb, ok := coarse.(*BSR)
	if !ok {
		t.Fatalf("GalerkinBSR fell back to %T on a conforming restriction", coarse)
	}
	want := Galerkin(r, a.ToCSR())
	if cb.Rows() != want.NRows || cb.Cols() != want.NCols {
		t.Fatalf("coarse dims %dx%d, want %dx%d", cb.Rows(), cb.Cols(), want.NRows, want.NCols)
	}
	scale := want.InfNorm() + 1
	for i := 0; i < want.NRows; i++ {
		for j := 0; j < want.NCols; j++ {
			if math.Abs(cb.At(i, j)-want.At(i, j)) > 1e-12*scale {
				t.Fatalf("coarse entry (%d,%d): blocked %g vs scalar %g", i, j, cb.At(i, j), want.At(i, j))
			}
		}
	}

	// Non-conforming restriction: must fall back and still match.
	nb := NewBuilder(r.NRows, r.NCols)
	for i := 0; i < r.NRows; i++ {
		cols, vals := r.Row(i)
		for k := range cols {
			nb.Add(i, cols[k], vals[k])
		}
	}
	nb.Add(0, 1, 0.5)
	rNon := nb.Build()
	coarse2, ok := GalerkinBSR(rNon, a).(interface{ At(i, j int) float64 })
	if !ok {
		t.Fatal("non-conforming fallback returned an operator without At")
	}
	want2 := Galerkin(rNon, a.ToCSR())
	for i := 0; i < want2.NRows; i++ {
		for j := 0; j < want2.NCols; j++ {
			if math.Abs(coarse2.At(i, j)-want2.At(i, j)) > 1e-12*scale {
				t.Fatalf("fallback coarse entry (%d,%d) differs", i, j)
			}
		}
	}
}

// TestAutoBlock: node-aligned square matrices block; misaligned shapes and
// fill-heavy patterns stay CSR.
func TestAutoBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := randBSR(rng, 8, 8, 3, 0.3).ToCSR()
	if _, ok := AutoBlock(a, 3).(*BSR); !ok {
		t.Fatal("AutoBlock kept a block-aligned matrix in CSR")
	}
	odd := randCSR(rng, 10, 10, 0.3)
	if _, ok := AutoBlock(odd, 3).(*CSR); !ok {
		t.Fatal("AutoBlock blocked a matrix with indivisible dimensions")
	}
	// A scalar diagonal blocks with 3x fill (one entry per 9-slot block):
	// the fill guard must keep it scalar.
	diag := Identity(30)
	if _, ok := AutoBlock(diag, 3).(*CSR); !ok {
		t.Fatal("AutoBlock accepted a 3x fill blow-up")
	}
}

// TestBSRDiagAndAt: scalar accessors agree with the expansion.
func TestBSRDiagAndAt(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := randBSR(rng, 6, 6, 3, 0.3)
	c := a.ToCSR()
	da, dc := a.Diag(), c.Diag()
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(dc[i]) {
			t.Fatalf("Diag[%d] differs", i)
		}
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(c.At(i, j)) {
				t.Fatalf("At(%d,%d) differs", i, j)
			}
		}
	}
}

// TestStorageBytes pins the bytes-per-storage accounting behind the
// bytes/dof gate (TestStorageParityMF) and bench/'s fine_bytes_per_dof:
// values, column indices and row pointers at 8 bytes each.
func TestStorageBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := randCSR(rng, 60, 60, 0.1)
	nnz := int64(a.NNZ())
	rows := int64(a.NRows)
	if got, want := StorageBytes(a), 16*nnz+8*(rows+1); got != want {
		t.Fatalf("StorageBytes(CSR) = %d, want %d", got, want)
	}
	bsr := randBSR(rng, 20, 20, 3, 0.2)
	nb := int64(len(bsr.ColIdx))
	if got, want := StorageBytes(bsr), 72*nb+8*nb+8*int64(bsr.NBRows+1); got != want {
		t.Fatalf("StorageBytes(BSR) = %d, want %d", got, want)
	}
}
