package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: (A·B)·C == A·(B·C) on random sparse triples.
func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		n1 := 2 + int(uint(seed)%8)
		n2 := 2 + int(uint(seed/3)%8)
		n3 := 2 + int(uint(seed/7)%8)
		n4 := 2 + int(uint(seed/11)%8)
		a := randCSR(rng, n1, n2, 0.4)
		b := randCSR(rng, n2, n3, 0.4)
		c := randCSR(rng, n3, n4, 0.4)
		lhs := a.Mul(b).Mul(c)
		rhs := a.Mul(b.Mul(c))
		for i := 0; i < n1; i++ {
			for j := 0; j < n4; j++ {
				if math.Abs(lhs.At(i, j)-rhs.At(i, j)) > 1e-9 {
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

// Property: Aᵀ·x computed via Transpose matches column-wise accumulation.
func TestTransposeMulVecConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		r := 2 + int(uint(seed)%10)
		c := 2 + int(uint(seed/5)%10)
		a := randCSR(rng, r, c, 0.35)
		x := make([]float64, r)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		// y1 = Aᵀ·x via explicit transpose.
		y1 := make([]float64, c)
		a.Transpose().MulVec(x, y1)
		// y2 via scatter over A's rows.
		y2 := make([]float64, c)
		for i := 0; i < r; i++ {
			cols, vals := a.Row(i)
			for k, j := range cols {
				y2[j] += vals[k] * x[i]
			}
		}
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Galerkin with the identity restriction is the identity map.
func TestGalerkinIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		a := randCSR(rng, n, n, 0.4)
		c := Galerkin(Identity(n), a)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(c.At(i, j)-a.At(i, j)) > 1e-12 {
					t.Fatalf("I·A·Iᵀ != A at (%d,%d)", i, j)
				}
			}
		}
	}
}
