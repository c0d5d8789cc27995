package sparse

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"prometheus/internal/la"
)

// randCSR returns a random r×c matrix with about density*r*c entries.
func randCSR(rng *rand.Rand, r, c int, density float64) *CSR {
	b := NewBuilder(r, c)
	n := int(density * float64(r*c))
	for k := 0; k < n; k++ {
		b.Add(rng.Intn(r), rng.Intn(c), rng.Float64()*2-1)
	}
	return b.Build()
}

// toDense converts for reference computations.
func toDense(a *CSR) *la.Dense {
	d := la.NewDense(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			d.Add(i, j, vals[k])
		}
	}
	return d
}

func TestBuilderDuplicatesSum(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1.5)
	b.Add(0, 1, 2.5)
	b.Add(1, 0, -1)
	b.Set(1, 0, 3)
	a := b.Build()
	if a.At(0, 1) != 4 {
		t.Fatalf("At(0,1) = %v", a.At(0, 1))
	}
	if a.At(1, 0) != 3 {
		t.Fatalf("Set did not replace: %v", a.At(1, 0))
	}
	if a.At(0, 0) != 0 {
		t.Fatal("missing entry should read 0")
	}
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d", a.NNZ())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	for name, f := range map[string]func(*Builder){
		"Add row": func(b *Builder) { b.Add(2, 0, 1) },
		"Set row": func(b *Builder) { b.Set(-1, 0, 1) },
		// A column past nCols used to build a CSR MulVec reads out of
		// bounds.
		"Set col": func(b *Builder) { b.Set(0, 3, 1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "sparse: "+name[:3]+" index (") || !strings.HasSuffix(msg, "out of range 2x3") {
					t.Fatalf("%s: panic %q does not name the index and the shape", name, msg)
				}
			}()
			f(NewBuilder(2, 3))
		}()
	}
}

// selectReference is Select spelled with Builder, the way Reduce,
// CompressCols and fixEmptyRows were written before Select.
func selectReference(a *CSR, rows, colMap []int, nCols int, pin float64) *CSR {
	b := NewBuilder(len(rows), nCols)
	for i, r := range rows {
		if r < 0 {
			b.Set(i, i, pin)
			continue
		}
		cols, vals := a.Row(r)
		for k, j := range cols {
			if jn := colMap[j]; jn >= 0 {
				b.Add(i, jn, vals[k])
			}
		}
	}
	return b.Build()
}

// sameBits reports whether two matrices have equal shape, pattern and
// value bits.
func sameBits(a, b *CSR) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		return false
	}
	return slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

func TestSelectMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randCSR(rng, 40, 50, 0.15)
	// One empty row, one stored -0.0 that Builder.Add would have
	// normalised had it seen it, and a row whose every column is dropped.
	lo, hi := a.RowPtr[3], a.RowPtr[4]
	a = &CSR{NRows: a.NRows, NCols: a.NCols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append(append([]int(nil), a.ColIdx[:lo]...), a.ColIdx[hi:]...),
		Val:    append(append([]float64(nil), a.Val[:lo]...), a.Val[hi:]...)}
	for i := 4; i <= a.NRows; i++ {
		a.RowPtr[i] -= hi - lo
	}
	negZeroCol := a.ColIdx[a.RowPtr[10]]
	a.Val[a.RowPtr[10]] = math.Copysign(0, -1)

	colMap := make([]int, a.NCols)
	nCols := 0
	for j := range colMap {
		colMap[j] = -1
		if rng.Intn(4) > 0 || j == negZeroCol {
			colMap[j] = nCols
			nCols++
		}
	}
	for _, j := range a.ColIdx[a.RowPtr[20]:a.RowPtr[21]] {
		colMap[j] = -1
	}
	if colMap[negZeroCol] < 0 || a.RowNNZ(3) != 0 || a.RowNNZ(20) == 0 {
		t.Fatal("the fixture lost a case it is meant to cover")
	}
	var rows []int
	for i := 0; i < a.NRows; i++ {
		switch rng.Intn(5) {
		case 0: // dropped
		case 1:
			if len(rows) < nCols {
				rows = append(rows, -1) // pinned
			}
		default:
			rows = append(rows, i)
		}
	}
	rows = append(rows, 3, 10, 20)

	got, want := a.Select(rows, colMap, nCols, 2.5), selectReference(a, rows, colMap, nCols, 2.5)
	if !sameBits(got, want) {
		t.Fatal("Select differs from the Builder reference")
	}
	if math.Signbit(got.At(len(rows)-2, colMap[negZeroCol])) {
		t.Fatal("a stored -0.0 must come out +0.0, as Builder.Add stores it")
	}
}

func TestSortedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCSR(rng, 20, 30, 0.2)
	for i := 0; i < a.NRows; i++ {
		cols, _ := a.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Fatalf("row %d not sorted: %v", i, cols)
			}
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randCSR(rng, 15, 12, 0.3)
	d := toDense(a)
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.Float64()
	}
	y1 := make([]float64, 15)
	y2 := make([]float64, 15)
	a.MulVec(x, y1)
	d.MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("MulVec mismatch at %d", i)
		}
	}
	// Range product over a partition must equal the full product.
	y3 := make([]float64, 15)
	a.MulVecRange(x, y3, 0, 7)
	a.MulVecRange(x, y3, 7, 15)
	for i := range y1 {
		if y3[i] != y1[i] {
			t.Fatalf("MulVecRange mismatch at %d", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := 1 + int(uint(seed)%20)
		c := 1 + int(uint(seed/7)%20)
		a := randCSR(rng, r, c, 0.25)
		att := a.Transpose().Transpose()
		if att.NRows != a.NRows || att.NCols != a.NCols || att.NNZ() != a.NNZ() {
			return false
		}
		for i := 0; i < a.NRows; i++ {
			c1, v1 := a.Row(i)
			c2, v2 := att.Row(i)
			if len(c1) != len(c2) {
				return false
			}
			for k := range c1 {
				if c1[k] != c2[k] || v1[k] != v2[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTransposeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCSR(rng, 10, 8, 0.3)
	at := a.Transpose()
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if at.At(j, i) != vals[k] {
				t.Fatalf("Aᵀ(%d,%d) != A(%d,%d)", j, i, i, j)
			}
		}
	}
}

func TestMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCSR(rng, 9, 14, 0.3)
	b := randCSR(rng, 14, 11, 0.3)
	c := a.Mul(b)
	cd := toDense(a).Mul(toDense(b))
	for i := 0; i < 9; i++ {
		for j := 0; j < 11; j++ {
			if math.Abs(c.At(i, j)-cd.At(i, j)) > 1e-12 {
				t.Fatalf("C(%d,%d) = %v want %v", i, j, c.At(i, j), cd.At(i, j))
			}
		}
	}
}

func TestMulVecLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			return true
		}
		a := randCSR(rng, 8, 8, 0.4)
		x := make([]float64, 8)
		y := make([]float64, 8)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		// A(αx + y) == αAx + Ay
		xy := make([]float64, 8)
		for i := range xy {
			xy[i] = alpha*x[i] + y[i]
		}
		lhs := make([]float64, 8)
		a.MulVec(xy, lhs)
		ax := make([]float64, 8)
		ay := make([]float64, 8)
		a.MulVec(x, ax)
		a.MulVec(y, ay)
		for i := range lhs {
			if math.Abs(lhs[i]-(alpha*ax[i]+ay[i])) > 1e-8*(1+math.Abs(alpha)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGalerkinSymmetryAndValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Symmetric A.
	b := NewBuilder(12, 12)
	for k := 0; k < 40; k++ {
		i, j := rng.Intn(12), rng.Intn(12)
		v := rng.Float64()
		b.Add(i, j, v)
		b.Add(j, i, v)
	}
	a := b.Build()
	if !a.IsSymmetric(1e-12) {
		t.Fatal("setup: A not symmetric")
	}
	r := randCSR(rng, 5, 12, 0.4)
	c := Galerkin(r, a)
	if c.NRows != 5 || c.NCols != 5 {
		t.Fatalf("Galerkin dims %dx%d", c.NRows, c.NCols)
	}
	if !c.IsSymmetric(1e-10) {
		t.Fatal("R·A·Rᵀ not symmetric")
	}
	// Check against dense.
	rd := toDense(r)
	cd := rd.Mul(toDense(a)).Mul(rd.Transpose())
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if math.Abs(c.At(i, j)-cd.At(i, j)) > 1e-10 {
				t.Fatalf("Galerkin(%d,%d) = %v want %v", i, j, c.At(i, j), cd.At(i, j))
			}
		}
	}
}

func TestGalerkinPreservesSPD(t *testing.T) {
	// A SPD and R full row rank => RARᵀ SPD. Use identity-like R picking rows.
	rng := rand.New(rand.NewSource(8))
	n := 10
	bb := la.NewDense(n, n)
	for i := range bb.Data {
		bb.Data[i] = rng.Float64()
	}
	ad := bb.Transpose().Mul(bb)
	for i := 0; i < n; i++ {
		ad.Add(i, i, float64(n))
	}
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Add(i, j, ad.At(i, j))
		}
	}
	a := b.Build()
	rb := NewBuilder(4, n)
	for p, i := range []int{0, 3, 5, 9} {
		rb.Add(p, i, 1)
		if i+1 < n {
			rb.Add(p, i+1, 0.5)
		}
	}
	r := rb.Build()
	c := Galerkin(r, a)
	if _, err := la.NewCholesky(toDense(c)); err != nil {
		t.Fatalf("coarse operator not SPD: %v", err)
	}
}

func TestResidual(t *testing.T) {
	a := Identity(3)
	a.Scale(2)
	bvec := []float64{2, 4, 6}
	x := []float64{1, 1, 1}
	r := make([]float64, 3)
	a.Residual(bvec, x, r)
	if r[0] != 0 || r[1] != 2 || r[2] != 4 {
		t.Fatalf("r = %v", r)
	}
}

func TestIdentityAndNorms(t *testing.T) {
	a := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.MulVec(x, y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("identity product")
		}
	}
	if a.InfNorm() != 1 {
		t.Fatal("InfNorm")
	}
	d := a.Diag()
	for _, v := range d {
		if v != 1 {
			t.Fatal("Diag")
		}
	}
	if a.MulVecFlops() != 8 {
		t.Fatalf("MulVecFlops = %d", a.MulVecFlops())
	}
	if a.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ")
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randCSR(rng, 5, 5, 0.5)
	c := a.Clone()
	if len(c.Val) > 0 {
		c.Val[0] += 100
		if a.Val[0] == c.Val[0] {
			t.Fatal("Clone aliases Val")
		}
	}
}

func TestRectangularGalerkinDims(t *testing.T) {
	// R: 3x7, A: 7x7 -> coarse 3x3.
	rng := rand.New(rand.NewSource(10))
	r := randCSR(rng, 3, 7, 0.5)
	a := randCSR(rng, 7, 7, 0.5)
	c := Galerkin(r, a)
	if c.NRows != 3 || c.NCols != 3 {
		t.Fatalf("dims %dx%d", c.NRows, c.NCols)
	}
}
