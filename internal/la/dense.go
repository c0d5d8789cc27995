// Package la provides the small dense linear-algebra kernels used by the
// element routines, the block-Jacobi smoother, and the coarsest-grid
// solver: column-major-free row-major dense matrices with Cholesky and
// partially pivoted LU factorizations, plus BLAS-1 style vector helpers.
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
// matrix, held as one packed row-major lower triangle: row i occupies
// l[i(i+1)/2 : i(i+1)/2+i+1] and its last slot holds the reciprocal
// 1/L(i,i), so neither triangular solve divides. n(n+1)/2 values per
// factor — a quarter of separate full-storage L and Lᵀ copies — keeps a
// smoother block resident in L2 between the two substitution sweeps.
type Cholesky struct {
	N int
	l []float64
}

// PackedLen returns the length n(n+1)/2 of a packed lower triangle.
func PackedLen(n int) int { return n * (n + 1) / 2 }

// NewCholesky factors the symmetric positive definite matrix A (only the
// lower triangle is referenced).
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("la: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := make([]float64, PackedLen(n))
	for i, off := 0, 0; i < n; i++ {
		copy(l[off:off+i+1], a.Data[i*n:i*n+i+1])
		off += i + 1
	}
	return FactorPacked(n, l)
}

// FactorPacked factors in place the symmetric positive definite matrix
// whose packed lower triangle (row i at a[i(i+1)/2:], i+1 values) is a.
// The returned factor owns a. A pivot that is not a positive finite
// number — an indefinite, NaN- or Inf-poisoned matrix — returns
// ErrNotSPD and leaves a partially overwritten.
func FactorPacked(n int, a []float64) (*Cholesky, error) {
	if len(a) != PackedLen(n) {
		panic("la: FactorPacked storage length mismatch")
	}
	for i, oi := 0, 0; i < n; i++ {
		ri := a[oi : oi+i+1 : oi+i+1]
		for j, oj := 0, 0; j < i; j++ {
			rj := a[oj : oj+j+1 : oj+j+1]
			ri[j] = (ri[j] - dot4(ri[:j], rj[:j])) * rj[j]
			oj += j + 1
		}
		s := ri[i] - dot4(ri[:i], ri[:i])
		if !(s > 0 && s <= math.MaxFloat64) {
			return nil, ErrNotSPD
		}
		ri[i] = 1 / math.Sqrt(s)
		oi += i + 1
	}
	return &Cholesky{N: n, l: a}, nil
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

// Solve computes x with A·x = b, overwriting x. b and x may alias.
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
	// Forward substitution L·y = b: one multi-accumulator dot per row.
	for i, off := 0, 0; i < n; i++ {
		row := c.l[off : off+i+1 : off+i+1]
		x[i] = (x[i] - dot4(row[:i], x)) * row[i]
		off += i + 1
	}
	// Back substitution Lᵀ·x = y in axpy form: once x[i] is final, row i
	// of L (contiguous) is eliminated from the unknowns above it. The
	// updates are independent, so nothing serializes on a running sum and
	// the packed triangle is streamed a second time in reverse while it
	// is still cache resident.
	for i, off := n-1, PackedLen(n-1); i >= 0; i-- {
		row := c.l[off : off+i+1 : off+i+1]
		xi := x[i] * row[i]
		x[i] = xi
		xs := x[:i]
		for k, lv := range row[:i] {
			xs[k] -= xi * lv
		}
		off -= i
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
