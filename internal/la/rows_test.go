package la

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// factorRows is FactorEnvelope one row at a time, the form the paired
// kernel replaced and is pinned to bit for bit: every entry of row i from
// its inner product with row j, j ascending, then its pivot.
func factorRows(off []int, a []float64) (*Cholesky, error) {
	n := len(off) - 1
	for i := 0; i < n; i++ {
		ri := a[off[i]:off[i+1]:off[i+1]]
		fi := i + 1 - len(ri)
		for j := fi; j < i; j++ {
			rj := a[off[j]:off[j+1]:off[j+1]]
			fj := j + 1 - len(rj)
			m := max(fi, fj)
			ri[j-fi] = (ri[j-fi] - dot4(ri[m-fi:j-fi], rj[m-fj:])) * rj[len(rj)-1]
		}
		d := len(ri) - 1
		s := ri[d] - dot4(ri[:d], ri)
		if !(s > 0 && s <= math.MaxFloat64) {
			return nil, ErrNotSPD
		}
		ri[d] = 1 / math.Sqrt(s)
	}
	return &Cholesky{N: n, off: off, l: a}, nil
}

// solveRows is Cholesky.Solve one row at a time: the forward sweep one
// inner product per row, the back sweep one axpy per row, x[j] taking its
// updates from the rows below it in descending order.
func solveRows(c *Cholesky, b, x []float64) {
	n := c.N
	if n == 0 {
		return
	}
	if &b[0] != &x[0] {
		copy(x, b)
	}
	off := c.off[: n+1 : n+1]
	for i := 0; i < n; i++ {
		row := c.l[off[i]:off[i+1]:off[i+1]]
		d := len(row) - 1
		x[i] = (x[i] - dot4(row[:d], x[i-d:])) * row[d]
	}
	for i := n - 1; i >= 0; i-- {
		row := c.l[off[i]:off[i+1]:off[i+1]]
		d := len(row) - 1
		xi := x[i] * row[d]
		x[i] = xi
		axpyNeg(xi, row[:d], x[i-d:i])
	}
}

// checkPanelsMatchRows factors a, gathered into the envelope whose row i
// starts at starts[i], with FactorEnvelope and with factorRows, and solves
// with both factors: the factors must agree bit for bit, and so must
// Solve and solveRows on a right-hand side with zeros and -0 entries,
// into a separate x and aliased onto b.
func checkPanelsMatchRows(a *Dense, starts []int, rng *rand.Rand) error {
	n := a.Rows
	gather := func() ([]int, []float64) {
		off := EnvelopeOffsets(starts)
		l := make([]float64, off[n])
		for i, f := range starts {
			copy(l[off[i]:off[i+1]], a.Data[i*n+f:i*n+i+1])
		}
		return off, l
	}
	off, l := gather()
	pan, err := FactorEnvelope(off, l)
	if err != nil {
		return fmt.Errorf("paired factor: %w", err)
	}
	off, l = gather()
	row, err := factorRows(off, l)
	if err != nil {
		return fmt.Errorf("row factor: %w", err)
	}
	for k, v := range row.l {
		if math.Float64bits(v) != math.Float64bits(pan.l[k]) {
			return fmt.Errorf("factor entry %d: paired %v, one row at a time %v", k, pan.l[k], v)
		}
	}
	b := make([]float64, n)
	for i := range b {
		switch rng.Intn(5) {
		case 0:
		case 1:
			b[i] = math.Copysign(0, -1)
		default:
			b[i] = rng.Float64()*2 - 1
		}
	}
	xp, xr := make([]float64, n), make([]float64, n)
	pan.Solve(b, xp)
	solveRows(row, b, xr)
	bp, br := slices.Clone(b), slices.Clone(b)
	pan.Solve(bp, bp)
	solveRows(row, br, br)
	for i := range xp {
		if math.Float64bits(xp[i]) != math.Float64bits(xr[i]) || math.Float64bits(bp[i]) != math.Float64bits(br[i]) {
			return fmt.Errorf("solve x[%d]: paired %v (aliased %v), one row at a time %v (aliased %v)", i, xp[i], bp[i], xr[i], br[i])
		}
	}
	return nil
}

// TestPairedKernelsMatchRows pins FactorEnvelope and Solve to the one-row
// forms above on every size up to 40, odd sizes ending in a row of their
// own, with the row starts of each pair drawn independently (so the two
// rows of a pair start at different multiples of 4), then on dense
// triangles and on envelopes in which every row starts as late as it can.
func TestPairedKernelsMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= 40; n++ {
		for rep := 0; rep < 4; rep++ {
			a, first := envelopeSPD(rng, n)
			starts := alignedStarts(first)
			switch rep {
			case 2:
				starts = make([]int, n)
			case 3:
				for i := range starts {
					starts[i] = i &^ 3
				}
				a = maskLeftOf(a, starts)
			}
			if err := checkPanelsMatchRows(a, starts, rng); err != nil {
				t.Fatalf("n=%d rep %d: %v", n, rep, err)
			}
		}
	}
}

// maskLeftOf returns a with the entries of row i left of starts[i], and
// their mirrors, set to zero.
func maskLeftOf(a *Dense, starts []int) *Dense {
	m := a.Clone()
	for i, f := range starts {
		for j := 0; j < f; j++ {
			m.Set(i, j, 0)
			m.Set(j, i, 0)
		}
	}
	return m
}

// FuzzPairedKernelsMatchRows is TestPairedKernelsMatchRows on the matrix
// a seed draws.
func FuzzPairedKernelsMatchRows(f *testing.F) {
	for _, n := range []uint8{1, 2, 7, 33, 70} {
		f.Add(int64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		if n == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a, first := envelopeSPD(rng, int(n))
		if err := checkPanelsMatchRows(a, alignedStarts(first), rng); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	})
}

// TestEnvelopeRejectsUnalignedStarts: a row start that is not a multiple
// of 4 in [0, i] would put the paired kernels' terms in other lanes than
// a row at a time, so EnvelopeOffsets refuses it, and so does
// FactorEnvelope on offsets built by hand.
func TestEnvelopeRejectsUnalignedStarts(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, first := range [][]int{{0, 1}, {0, 0, 0, 0, 0, 2}, {0, 0, 4}, {-4}} {
		if !panics(func() { EnvelopeOffsets(first) }) {
			t.Errorf("EnvelopeOffsets(%v) accepted", first)
		}
	}
	// Rows 0 and 1 stored from column 0, row 2 from column 1.
	if !panics(func() { _, _ = FactorEnvelope([]int{0, 1, 3, 5}, []float64{1, 0, 1, 0, 1}) }) {
		t.Error("FactorEnvelope accepted a row starting at column 1")
	}
	if off := EnvelopeOffsets([]int{0, 0, 0, 0, 4, 4}); !slices.Equal(off, []int{0, 1, 3, 6, 10, 11, 13}) {
		t.Errorf("EnvelopeOffsets = %v", off)
	}
}
