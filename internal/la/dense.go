// Package la provides the small dense linear-algebra kernels used by the
// element routines and the block-Jacobi smoother: row-major dense
// matrices, a Cholesky factorization held as its lower envelope (the
// smoother's block factors, each row stored from the first column its
// pattern holds), partially pivoted LU, and BLAS-1 style vector helpers.
package la

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = A(i,j)
}

// NewDense returns a zero r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("la: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns A(i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns A(i,j) = v.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates A(i,j) += v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every entry to zero.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = A*x. y must have length Rows and x length Cols.
func (m *Dense) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("la: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// Mul returns C = A*B.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic("la: Mul dimension mismatch")
	}
	c := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			crow := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j, bv := range brow {
				crow[j] += a * bv
			}
		}
	}
	return c
}

// Transpose returns Aᵀ.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// String formats the matrix for debugging.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%12.5g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
// positive definite (to within roundoff).
var ErrNotSPD = errors.New("la: matrix is not positive definite")

// Cholesky is the factorization A = L·Lᵀ of a symmetric positive definite
// matrix, held as its envelope: row i of L stores columns [first_i, i]
// contiguously, row after row, and its last slot holds the reciprocal
// 1/L(i,i), so neither triangular solve divides. Every first_i is a
// multiple of 4. Entries of A left of first_i are zero, and so are L's
// there (a factorization fills only inside the envelope), so they are
// neither stored nor touched. A dense triangle is the envelope in which
// every row starts at 0.
type Cholesky struct {
	N int
	// off[i] is where row i starts in l; off[N] = len(l).
	off []int
	l   []float64
}

// EnvelopeOffsets returns the layout of the envelope whose row i starts at
// column first[i], a multiple of 4 in [0, i]: row i occupies
// [off[i], off[i+1]) of the storage, and off[len(first)] is its length.
func EnvelopeOffsets(first []int) []int {
	off := make([]int, len(first)+1)
	for i, f := range first {
		checkRowStart(i, f)
		off[i+1] = off[i] + i + 1 - f
	}
	return off
}

// checkRowStart panics unless f is a row start EnvelopeOffsets accepts
// for row i.
func checkRowStart(i, f int) {
	if f < 0 || f > i || f%4 != 0 {
		panic(fmt.Sprintf("la: row %d of an envelope starts at column %d, not a multiple of 4 in [0, %d]", i, f, i))
	}
}

// NewCholesky factors the symmetric positive definite matrix A (only the
// lower triangle is referenced) as a dense triangle.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("la: Cholesky of non-square matrix")
	}
	n := a.Rows
	off := EnvelopeOffsets(make([]int, n))
	l := make([]float64, off[n])
	for i := 0; i < n; i++ {
		copy(l[off[i]:off[i+1]], a.Data[i*n:i*n+i+1])
	}
	return FactorEnvelope(off, l)
}

// FactorEnvelope factors in place the symmetric positive definite matrix
// whose lower envelope, laid out by off (EnvelopeOffsets), is a. The
// returned factor owns a and shares off. A pivot that is not a positive
// finite number — an indefinite, NaN- or Inf-poisoned matrix — returns
// ErrNotSPD and leaves a partially overwritten.
//
// Every inner product runs over the columns both rows store, from the
// later of their first columns. Rows start at multiples of 4, so the terms
// left out are the leading ±0 products of a dense factorization, which
// leave its four accumulators at +0, and the ones kept land in the same
// accumulator in the same order: the factor is the dense one bit for bit,
// restricted to the envelope.
//
// Rows are factored in pairs, i and i+1 from an even i: one pass over an
// earlier row j forms both rows' entries in column j (dot4Pair), so row j
// is read once for the two. Every entry takes its terms in the
// accumulators and the order of a factorization one row at a time, so the
// pairing moves no bit.
func FactorEnvelope(off []int, a []float64) (*Cholesky, error) {
	n := len(off) - 1
	if n < 0 || off[0] != 0 || off[n] != len(a) {
		panic("la: FactorEnvelope storage length mismatch")
	}
	for i := 0; i < n; i++ {
		checkRowStart(i, i+1-(off[i+1]-off[i]))
	}
	i := 0
	for ; i+1 < n; i += 2 {
		ra := a[off[i]:off[i+1]:off[i+1]]
		rb := a[off[i+1]:off[i+2]:off[i+2]]
		fa, fb := i+1-len(ra), i+2-len(rb)
		for j := min(fa, fb); j < i; j++ {
			rj := a[off[j]:off[j+1]:off[j+1]]
			fj := j + 1 - len(rj)
			switch {
			case j < fa:
				eliminate(rb, fb, rj, fj, j)
			case j < fb:
				eliminate(ra, fa, rj, fj, j)
			default:
				ma, mb := max(fa, fj), max(fb, fj)
				qa, qb := dot4Pair(ra[ma-fa:j-fa], rb[mb-fb:j-fb], rj[:j-fj])
				ra[j-fa] = (ra[j-fa] - qa.sum()) * rj[len(rj)-1]
				rb[j-fb] = (rb[j-fb] - qb.sum()) * rj[len(rj)-1]
			}
		}
		// Row i+1 starts at a multiple of 4, which the odd i+1 is not, so
		// it stores column i.
		if !pivot(ra) {
			return nil, ErrNotSPD
		}
		eliminate(rb, fb, ra, fa, i)
		if !pivot(rb) {
			return nil, ErrNotSPD
		}
	}
	if i < n {
		ri := a[off[i]:off[i+1]:off[i+1]]
		fi := i + 1 - len(ri)
		for j := fi; j < i; j++ {
			rj := a[off[j]:off[j+1]:off[j+1]]
			eliminate(ri, fi, rj, j+1-len(rj), j)
		}
		if !pivot(ri) {
			return nil, ErrNotSPD
		}
	}
	return &Cholesky{N: n, off: off, l: a}, nil
}

// eliminate forms the entry in column j of row ri, which starts at column
// fi: its inner product with row j (rj, from column fj) over the columns
// both store, subtracted and scaled by row j's reciprocal pivot.
func eliminate(ri []float64, fi int, rj []float64, fj, j int) {
	m := max(fi, fj)
	ri[j-fi] = (ri[j-fi] - dot4(ri[m-fi:j-fi], rj[m-fj:])) * rj[len(rj)-1]
}

// pivot completes row ri, every entry left of the diagonal formed: its
// diagonal slot becomes 1/L(i,i). It reports false, leaving the slot, when
// the pivot is not a positive finite number.
func pivot(ri []float64) bool {
	d := len(ri) - 1
	s := ri[d] - dot4(ri[:d], ri)
	if !(s > 0 && s <= math.MaxFloat64) {
		return false
	}
	ri[d] = 1 / math.Sqrt(s)
	return true
}

// Row returns row i of the factor: its first stored column, and the
// stored values from that column to the diagonal, whose slot holds
// 1/L(i,i). The slice is the factor's own; callers must not modify it.
func (c *Cholesky) Row(i int) (first int, row []float64) {
	row = c.l[c.off[i]:c.off[i+1]]
	return i + 1 - len(row), row
}

// dot4 returns Σ a[k]·b[k] over len(a) terms (len(b) >= len(a)) with
// four independent accumulators, so consecutive multiply-adds overlap
// instead of serializing on the add latency of a single running sum.
func dot4(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	for k, v := range a {
		s0 += v * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// quad is dot4's four accumulators, before they are added.
type quad struct{ s0, s1, s2, s3 float64 }

// sum adds the accumulators as dot4 does.
func (q quad) sum() float64 { return (q.s0 + q.s1) + (q.s2 + q.s3) }

// dot4Pair returns the accumulators of dot4(a, c[len(c)-len(a):]) and of
// dot4(b, c[len(c)-len(b):]): two inner products against the end of one
// vector, len(c) >= len(a), len(b). The lengths of a and b differ by a
// multiple of 4, so both products put each value of c in the same
// accumulator: after the longer one's lead, one pass loads each value of c
// once for the two.
func dot4Pair(a, b, c []float64) (qa, qb quad) {
	ca, cb := c[len(c)-len(a):], c[len(c)-len(b):]
	for len(a) >= len(b)+4 && len(a) >= 4 && len(ca) >= 4 {
		qa.s0 += a[0] * ca[0]
		qa.s1 += a[1] * ca[1]
		qa.s2 += a[2] * ca[2]
		qa.s3 += a[3] * ca[3]
		a, ca = a[4:], ca[4:]
	}
	for len(b) >= len(a)+4 && len(b) >= 4 && len(cb) >= 4 {
		qb.s0 += b[0] * cb[0]
		qb.s1 += b[1] * cb[1]
		qb.s2 += b[2] * cb[2]
		qb.s3 += b[3] * cb[3]
		b, cb = b[4:], cb[4:]
	}
	n := len(a)
	if len(b) != n {
		panic("la: dot4Pair lengths differ by other than a multiple of 4")
	}
	b, ca = b[:n], ca[:n]
	k := 0
	for ; k <= n-4; k += 4 {
		c := ca[k]
		qa.s0 += a[k] * c
		qb.s0 += b[k] * c
		c = ca[k+1]
		qa.s1 += a[k+1] * c
		qb.s1 += b[k+1] * c
		c = ca[k+2]
		qa.s2 += a[k+2] * c
		qb.s2 += b[k+2] * c
		c = ca[k+3]
		qa.s3 += a[k+3] * c
		qb.s3 += b[k+3] * c
	}
	for ; k < n; k++ {
		qa.s0 += a[k] * ca[k]
		qb.s0 += b[k] * ca[k]
	}
	return qa, qb
}

// axpyNeg computes y -= alpha·x over len(x) entries (len(y) >= len(x)),
// four at a time: every entry is its own rounding, so the unrolling
// changes no bit.
func axpyNeg(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for len(x) >= 4 && len(y) >= 4 {
		y[0] -= alpha * x[0]
		y[1] -= alpha * x[1]
		y[2] -= alpha * x[2]
		y[3] -= alpha * x[3]
		x, y = x[4:], y[4:]
	}
	for k, v := range x {
		y[k] -= alpha * v
	}
}

// axpyNeg2 computes y -= alpha·u and then y -= beta·v, u and v lined up
// with the end of y (len(y) >= len(u), len(v)). Where both reach, one pass
// loads and stores each y[k] once and subtracts alpha's term before
// beta's: every entry takes the roundings of the two axpys in turn.
func axpyNeg2(alpha float64, u []float64, beta float64, v, y []float64) {
	if d := len(u) - len(v); d > 0 {
		axpyNeg(alpha, u[:d], y[len(y)-len(u):])
		u = u[d:]
	} else if d < 0 {
		axpyNeg(beta, v[:-d], y[len(y)-len(v):])
		v = v[-d:]
	}
	n := len(u)
	y, v = y[len(y)-n:], v[:n]
	k := 0
	for ; k <= n-4; k += 4 {
		y[k] = y[k] - alpha*u[k] - beta*v[k]
		y[k+1] = y[k+1] - alpha*u[k+1] - beta*v[k+1]
		y[k+2] = y[k+2] - alpha*u[k+2] - beta*v[k+2]
		y[k+3] = y[k+3] - alpha*u[k+3] - beta*v[k+3]
	}
	for ; k < n; k++ {
		y[k] = y[k] - alpha*u[k] - beta*v[k]
	}
}

// Solve computes x with A·x = b, overwriting x. b and x may alias. On the
// envelope of a factor whose rows start at multiples of 4 it gives the
// dense triangle's bits for every b without a -0 entry: the skipped terms
// are ±0 products a dense sum starting at +0 absorbs, and subtractions of
// ±0 from entries that are not -0.
//
// Both sweeps take the rows in pairs, i and i+1 from an even i, and give
// the bits of one row at a time. Forward, one pass forms both rows' inner
// products with x up to column i (dot4Pair); x[i] is then final, and row
// i+1 adds its term in column i to the accumulator dot4 puts it in, last.
// Backward, x[i+1] and then x[i] are made final, and one pass subtracts
// both rows from every x[j] they reach, row i+1's term first.
func (c *Cholesky) Solve(b, x []float64) {
	n := c.N
	if len(b) != n || len(x) != n {
		panic("la: Cholesky.Solve dimension mismatch")
	}
	if n == 0 {
		return
	}
	if &b[0] != &x[0] {
		copy(x, b)
	}
	off := c.off[: n+1 : n+1]
	// Forward substitution L·y = b. Row i+1 stores column i (see
	// FactorEnvelope), so db >= 1.
	i := 0
	for ; i+1 < n; i += 2 {
		ra := c.l[off[i]:off[i+1]:off[i+1]]
		rb := c.l[off[i+1]:off[i+2]:off[i+2]]
		da, db := len(ra)-1, len(rb)-1
		qa, qb := dot4Pair(ra[:da], rb[:db-1], x[:i])
		xi := (x[i] - qa.sum()) * ra[da]
		x[i] = xi
		qb.s0 += rb[db-1] * xi
		x[i+1] = (x[i+1] - qb.sum()) * rb[db]
	}
	// An odd last row is the end of the forward sweep and the start of the
	// back substitution Lᵀ·x = y.
	if i < n {
		row := c.l[off[i]:off[i+1]:off[i+1]]
		d := len(row) - 1
		x[i] = (x[i] - dot4(row[:d], x[i-d:])) * row[d]
		xi := x[i] * row[d]
		x[i] = xi
		axpyNeg(xi, row[:d], x[i-d:i])
	}
	// Back substitution in axpy form: once x[i] is final, row i of L
	// (contiguous) is eliminated from the unknowns it reaches. The updates
	// are independent, so nothing serializes on a running sum, and the
	// envelope is streamed a second time in reverse while it is still
	// cache resident.
	for i -= 2; i >= 0; i -= 2 {
		ra := c.l[off[i]:off[i+1]:off[i+1]]
		rb := c.l[off[i+1]:off[i+2]:off[i+2]]
		da, db := len(ra)-1, len(rb)-1
		xb := x[i+1] * rb[db]
		x[i+1] = xb
		xa := (x[i] - xb*rb[db-1]) * ra[da]
		x[i] = xa
		axpyNeg2(xb, rb[:db-1], xa, ra[:da], x[:i])
	}
}

// Dot returns xᵀ·y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("la: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("la: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal scales x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Copy copies src into dst.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("la: Copy length mismatch")
	}
	copy(dst, src)
}

// MaxAbs returns the infinity norm of x.
func MaxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
