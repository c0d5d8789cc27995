package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSPD(rng *rand.Rand, n int) *Dense {
	// A = Bᵀ·B + n·I is SPD with probability 1.
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.Float64()*2 - 1
	}
	a := b.Transpose().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestDenseBasics(t *testing.T) {
	a := NewDense(2, 3)
	a.Set(0, 0, 1)
	a.Set(0, 2, 2)
	a.Set(1, 1, 3)
	a.Add(1, 1, 1)
	if a.At(1, 1) != 4 {
		t.Fatalf("At = %v", a.At(1, 1))
	}
	x := []float64{1, 1, 1}
	y := make([]float64, 2)
	a.MulVec(x, y)
	if y[0] != 3 || y[1] != 4 {
		t.Fatalf("MulVec = %v", y)
	}
	tt := a.Transpose()
	if tt.Rows != 3 || tt.Cols != 2 || tt.At(2, 0) != 2 {
		t.Fatalf("Transpose wrong: %v", tt)
	}
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone aliases original")
	}
	c.Zero()
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
	if s := a.String(); len(s) == 0 {
		t.Fatal("String empty")
	}
}

func TestMulAssociatesWithMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewDense(4, 5)
	b := NewDense(5, 3)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	for i := range b.Data {
		b.Data[i] = rng.Float64()
	}
	x := make([]float64, 3)
	for i := range x {
		x[i] = rng.Float64()
	}
	// (A·B)·x == A·(B·x)
	ab := a.Mul(b)
	y1 := make([]float64, 4)
	ab.MulVec(x, y1)
	tmp := make([]float64, 5)
	b.MulVec(x, tmp)
	y2 := make([]float64, 4)
	a.MulVec(tmp, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("Mul/MulVec mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

// TestCholeskySolve checks the dense factor and both substitution sweeps
// against the dense matrix they came from: every size up to 34 (both sides
// of each unroll boundary of the four-accumulator dot), then up to a few
// hundred unknowns, with separate and aliased right-hand sides.
func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{50, 63, 64, 65, 127, 166, 167, 255, 299, 300}
	for n := 1; n <= 34; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		a := randSPD(rng, n)
		chol, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(chol.l) != n*(n+1)/2 {
			t.Fatalf("n=%d: factor holds %d values, want %d", n, len(chol.l), n*(n+1)/2)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.Float64()*2 - 1
		}
		b := make([]float64, n)
		a.MulVec(xTrue, b)
		x := make([]float64, n)
		chol.Solve(b, x)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d]=%v want %v", n, i, x[i], xTrue[i])
			}
		}
		ax := make([]float64, n)
		a.MulVec(x, ax)
		Axpy(-1, b, ax)
		if rel := Norm2(ax) / Norm2(b); rel > 1e-12*float64(n) {
			t.Fatalf("n=%d: relative residual %g", n, rel)
		}
		// In-place solve: same arithmetic, same bits.
		chol.Solve(b, b)
		for i := range b {
			if b[i] != x[i] {
				t.Fatalf("n=%d: aliased solve differs at %d: %v vs %v", n, i, b[i], x[i])
			}
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

// TestCholeskyRejectsNonFinite locks in the NaN-safe pivot test: a NaN or
// Inf anywhere in the referenced triangle must surface as ErrNotSPD, never
// as a factor full of NaN.
func TestCholeskyRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range [][2]int{{0, 0}, {4, 4}, {5, 2}, {8, 8}} {
			a := randSPD(rng, 9)
			a.Set(at[0], at[1], bad)
			if _, err := NewCholesky(a); err != ErrNotSPD {
				t.Fatalf("A(%d,%d)=%v: err = %v, want ErrNotSPD", at[0], at[1], bad, err)
			}
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatal("Dot")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2")
	}
	z := append([]float64(nil), y...)
	Axpy(2, x, z)
	if z[0] != 6 || z[2] != 12 {
		t.Fatalf("Axpy = %v", z)
	}
	Scal(0.5, z)
	if z[0] != 3 {
		t.Fatalf("Scal = %v", z)
	}
	d := make([]float64, 3)
	Copy(d, x)
	if d[2] != 3 {
		t.Fatal("Copy")
	}
	if MaxAbs([]float64{-7, 2}) != 7 {
		t.Fatal("MaxAbs")
	}
}

func TestCholeskyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		n := 1 + int(seed%7+7)%7 // 1..7
		a := randSPD(rng, n)
		chol, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()
		}
		x := make([]float64, n)
		chol.Solve(b, x)
		// Residual check: A·x ≈ b.
		r := make([]float64, n)
		a.MulVec(x, r)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
