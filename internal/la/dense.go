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

// ErrSingular is returned by LU when a zero pivot is encountered.
var ErrSingular = errors.New("la: matrix is singular")

// Cholesky is the factorization A = L·Lᵀ of a symmetric positive definite
// matrix, held as its envelope: row i of L stores columns [first_i, i]
// contiguously, row after row, and its last slot holds the reciprocal
// 1/L(i,i), so neither triangular solve divides. Entries of A left of
// first_i are zero, and so are L's there (a factorization fills only
// inside the envelope), so they are neither stored nor touched. A dense
// triangle is the envelope in which every row starts at 0.
type Cholesky struct {
	N int
	// off[i] is where row i starts in l; off[N] = len(l).
	off []int
	l   []float64
}

// EnvelopeOffsets returns the layout of the envelope whose row i starts at
// column first[i] (0 <= first[i] <= i): row i occupies [off[i], off[i+1])
// of the storage, and off[len(first)] is its length.
func EnvelopeOffsets(first []int) []int {
	off := make([]int, len(first)+1)
	for i, f := range first {
		if f < 0 || f > i {
			panic(fmt.Sprintf("la: row %d of an envelope starts at column %d", i, f))
		}
		off[i+1] = off[i] + i + 1 - f
	}
	return off
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
// later of their first columns. When every row starts at a multiple of 4,
// the terms left out are the leading ±0 products of a dense factorization,
// which leave its four accumulators at +0, and the ones kept land in the
// same accumulator in the same order: the factor is the dense one bit for
// bit, restricted to the envelope.
func FactorEnvelope(off []int, a []float64) (*Cholesky, error) {
	n := len(off) - 1
	if n < 0 || off[0] != 0 || off[n] != len(a) {
		panic("la: FactorEnvelope storage length mismatch")
	}
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

// Solve computes x with A·x = b, overwriting x. b and x may alias. On the
// envelope of a factor whose rows start at multiples of 4 it gives the
// dense triangle's bits for every b without a -0 entry: the skipped terms
// are ±0 products a dense sum starting at +0 absorbs, and subtractions of
// ±0 from entries that are not -0.
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
	// Forward substitution L·y = b: one multi-accumulator dot per row.
	for i := 0; i < n; i++ {
		row := c.l[off[i]:off[i+1]:off[i+1]]
		d := len(row) - 1
		x[i] = (x[i] - dot4(row[:d], x[i-d:])) * row[d]
	}
	// Back substitution Lᵀ·x = y in axpy form: once x[i] is final, row i
	// of L (contiguous) is eliminated from the unknowns it reaches. The
	// updates are independent, so nothing serializes on a running sum and
	// the envelope is streamed a second time in reverse while it is still
	// cache resident.
	for i := n - 1; i >= 0; i-- {
		row := c.l[off[i]:off[i+1]:off[i+1]]
		d := len(row) - 1
		xi := x[i] * row[d]
		x[i] = xi
		axpyNeg(xi, row[:d], x[i-d:i])
	}
}

// LU holds a partially pivoted LU factorization P·A = L·U.
type LU struct {
	N    int
	LU   []float64
	Piv  []int
	sign int
}

// NewLU factors A with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		panic("la: LU of non-square matrix")
	}
	n := a.Rows
	lu := make([]float64, n*n)
	copy(lu, a.Data)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Pivot search.
		p := k
		maxv := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > maxv {
				maxv, p = v, i
			}
		}
		if maxv == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivVal := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivVal
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return &LU{N: n, LU: lu, Piv: piv, sign: sign}, nil
}

// Solve computes x with A·x = b. b and x may alias.
func (f *LU) Solve(b, x []float64) {
	n := f.N
	if len(b) != n || len(x) != n {
		panic("la: LU.Solve dimension mismatch")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[f.Piv[i]]
	}
	// L·z = P·b (unit diagonal).
	for i := 0; i < n; i++ {
		s := y[i]
		for k := 0; k < i; k++ {
			s -= f.LU[i*n+k] * y[k]
		}
		y[i] = s
	}
	// U·x = z.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= f.LU[i*n+k] * y[k]
		}
		y[i] = s / f.LU[i*n+i]
	}
	copy(x, y)
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.N; i++ {
		d *= f.LU[i*f.N+i]
	}
	return d
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
