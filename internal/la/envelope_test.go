package la

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// envelopeSPD returns a random symmetric, strictly diagonally dominant
// (so positive definite) n×n matrix whose row i is zero left of column
// first[i], drawn at arbitrary, unaligned columns, with a quarter of the
// entries inside the envelope zero as well.
func envelopeSPD(rng *rand.Rand, n int) (a *Dense, first []int) {
	a = NewDense(n, n)
	first = make([]int, n)
	for i := range first {
		first[i] = rng.Intn(i + 1)
		for j := first[i]; j < i; j++ {
			if rng.Intn(4) > 0 {
				v := rng.Float64()*2 - 1
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
	}
	for i := 0; i < n; i++ {
		s := 1.0
		for j := 0; j < n; j++ {
			s += math.Abs(a.At(i, j))
		}
		a.Set(i, i, s)
	}
	return a, first
}

// alignedStarts rounds every row start down to a multiple of 4, as the
// smoother's block plans do.
func alignedStarts(first []int) []int {
	al := make([]int, len(first))
	for i, f := range first {
		al[i] = f &^ 3
	}
	return al
}

// factorStarts gathers a's lower triangle into the envelope starting row i
// at column first[i] and factors it there.
func factorStarts(a *Dense, first []int) (*Cholesky, error) {
	off := EnvelopeOffsets(first)
	l := make([]float64, off[a.Rows])
	for i, f := range first {
		copy(l[off[i]:off[i+1]], a.Data[i*a.Cols+f:i*a.Cols+i+1])
	}
	return FactorEnvelope(off, l)
}

// checkEnvelopeIsDense factors a (row i zero left of first[i]) twice —
// on the envelope with the row starts starts, and as a dense triangle —
// and compares the two: the same bits inside the envelope, exact +0 in
// the dense factor outside it, the same solves. Then it poisons one
// envelope entry with NaN and one pivot with a negative number, and both
// layouts must refuse the matrix.
func checkEnvelopeIsDense(a *Dense, starts []int, rng *rand.Rand) error {
	n := a.Rows
	env, err := factorStarts(a, starts)
	if err != nil {
		return fmt.Errorf("envelope factor: %w", err)
	}
	dense, err := factorStarts(a, make([]int, n))
	if err != nil {
		return fmt.Errorf("dense factor: %w", err)
	}
	for i := 0; i < n; i++ {
		f, er := env.Row(i)
		_, dr := dense.Row(i)
		if f != starts[i] || len(er) != i+1-f {
			return fmt.Errorf("row %d stores %d values from column %d, want columns [%d, %d]", i, len(er), f, starts[i], i)
		}
		for j, v := range dr {
			if j < f {
				if math.Float64bits(v) != 0 {
					return fmt.Errorf("dense L(%d,%d) = %v outside the envelope, want +0", i, j, v)
				}
			} else if math.Float64bits(v) != math.Float64bits(er[j-f]) {
				return fmt.Errorf("L(%d,%d): envelope %v, dense %v", i, j, er[j-f], v)
			}
		}
	}
	b := make([]float64, n)
	for i := range b {
		if rng.Intn(3) > 0 {
			b[i] = rng.Float64()*2 - 1
		}
	}
	xe, xd := make([]float64, n), make([]float64, n)
	env.Solve(b, xe)
	dense.Solve(b, xd)
	env.Solve(b, b)
	for i := range xe {
		if math.Float64bits(xe[i]) != math.Float64bits(xd[i]) || math.Float64bits(b[i]) != math.Float64bits(xe[i]) {
			return fmt.Errorf("solve x[%d]: envelope %v (aliased %v), dense %v", i, xe[i], b[i], xd[i])
		}
	}
	for _, poison := range []struct {
		name string
		i, j int
		v    float64
	}{
		{"NaN", n - 1, starts[n-1], math.NaN()},
		{"indefinite pivot", n / 2, n / 2, -1},
	} {
		p := a.Clone()
		p.Set(poison.i, poison.j, poison.v)
		for _, s := range [][]int{starts, make([]int, n)} {
			if _, err := factorStarts(p, s); !errors.Is(err, ErrNotSPD) {
				return fmt.Errorf("%s at (%d,%d): err = %v, want ErrNotSPD", poison.name, poison.i, poison.j, err)
			}
		}
	}
	return nil
}

// TestFactorEnvelopeIsDenseFactor pins the envelope factorization and its
// solves to the dense ones on matrices whose rows start at arbitrary
// columns, factored with the starts rounded down to multiples of 4: every
// size up to 40 (both sides of each unroll boundary of the four-accumulator
// dot), then a few larger ones.
func TestFactorEnvelopeIsDenseFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{63, 64, 65, 127, 200}
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for rep := 0; rep < 3; rep++ {
			a, first := envelopeSPD(rng, n)
			if err := checkEnvelopeIsDense(a, alignedStarts(first), rng); err != nil {
				t.Fatalf("n=%d rep %d: %v", n, rep, err)
			}
		}
	}
}

// FuzzFactorEnvelope is TestFactorEnvelopeIsDenseFactor on the matrix a
// seed draws.
func FuzzFactorEnvelope(f *testing.F) {
	for _, n := range []uint8{1, 4, 9, 33, 70} {
		f.Add(int64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		if n == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a, first := envelopeSPD(rng, int(n))
		if err := checkEnvelopeIsDense(a, alignedStarts(first), rng); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	})
}
