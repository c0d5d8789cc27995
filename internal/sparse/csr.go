// Package sparse implements the compressed sparse row (CSR) matrix algebra
// that the solver is built on: assembly from triplets, matrix-vector
// products, transposition, general sparse matrix-matrix products, and the
// Galerkin triple product R·A·Rᵀ used to build coarse-grid operators.
// It is the stand-in for the PETSc Mat layer in the paper's Epimetheus.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"prometheus/internal/check"
	"prometheus/internal/obs"
	"prometheus/internal/pool"
)

// CSR is a sparse matrix in compressed sparse row format.
type CSR struct {
	NRows, NCols int
	RowPtr       []int     // len NRows+1
	ColIdx       []int     // len nnz, sorted within each row
	Val          []float64 // len nnz
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.ColIdx) }

// Rows returns the number of rows. Part of the Operator interface.
func (a *CSR) Rows() int { return a.NRows }

// Cols returns the number of columns. Part of the Operator interface.
func (a *CSR) Cols() int { return a.NCols }

// Builder accumulates triplets (duplicates are summed) and converts to CSR.
type Builder struct {
	nRows, nCols int
	rows         []map[int]float64
}

// NewBuilder returns a builder for an r×c matrix.
func NewBuilder(r, c int) *Builder {
	return &Builder{nRows: r, nCols: c, rows: make([]map[int]float64, r)}
}

// Add accumulates A(i,j) += v.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.nRows || j < 0 || j >= b.nCols {
		panic(fmt.Sprintf("sparse: Add index (%d,%d) out of range %dx%d", i, j, b.nRows, b.nCols))
	}
	if b.rows[i] == nil {
		b.rows[i] = make(map[int]float64, 8)
	}
	b.rows[i][j] += v
}

// Set assigns A(i,j) = v, replacing any accumulated value.
func (b *Builder) Set(i, j int, v float64) {
	if i < 0 || i >= b.nRows || j < 0 || j >= b.nCols {
		panic(fmt.Sprintf("sparse: Set index (%d,%d) out of range %dx%d", i, j, b.nRows, b.nCols))
	}
	if b.rows[i] == nil {
		b.rows[i] = make(map[int]float64, 8)
	}
	b.rows[i][j] = v
}

// Build converts the accumulated triplets to CSR with sorted column indices.
// Exact zeros created by cancellation are retained (the symbolic pattern is
// what assembly produced), but entries never touched are absent.
func (b *Builder) Build() *CSR {
	rowPtr := make([]int, b.nRows+1)
	nnz := 0
	for i, r := range b.rows {
		rowPtr[i] = nnz
		nnz += len(r)
	}
	rowPtr[b.nRows] = nnz
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	for i, r := range b.rows {
		start := rowPtr[i]
		k := start
		for j := range r {
			colIdx[k] = j
			k++
		}
		cols := colIdx[start:k]
		sort.Ints(cols)
		for kk, j := range cols {
			val[start+kk] = r[j]
		}
	}
	out := &CSR{NRows: b.nRows, NCols: b.nCols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if check.Enabled {
		check.CSRWellFormed(out.NRows, out.NCols, out.RowPtr, out.ColIdx, len(out.Val), "sparse.Builder.Build")
	}
	return out
}

// Select returns the len(rows)×nCols matrix whose row i is row rows[i] of
// a with its columns renumbered through colMap (old column → new column; a
// negative value drops the column). A negative rows[i] makes row i the
// single entry (i, pin) instead: the pinned row of an eliminated dof. It is
// SelectPattern and FillSelect in one. colMap must be increasing over the
// columns it keeps, which leaves every row sorted without a sort. Values
// are stored as 0+v, as Builder.Add stores them: a stored -0.0 comes out
// +0.0 and every other value unchanged.
func (a *CSR) Select(rows, colMap []int, nCols int, pin float64) *CSR {
	t := a.SelectPattern(rows, colMap, nCols)
	t.Val = t.selectValues(a, rows, colMap, pin)
	return t
}

// SelectPattern is the pattern half of Select (Val nil): one pass counts
// what is kept and one writes it, so the result is allocated at its final
// size.
func (a *CSR) SelectPattern(rows, colMap []int, nCols int) *CSR {
	rowPtr := make([]int, len(rows)+1)
	for i, r := range rows {
		n := 1
		if r >= 0 {
			n = 0
			for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
				if colMap[j] >= 0 {
					n++
				}
			}
		}
		rowPtr[i+1] = rowPtr[i] + n
	}
	colIdx := make([]int, rowPtr[len(rows)])
	n := 0
	for i, r := range rows {
		if r < 0 {
			colIdx[n] = i
			n++
			continue
		}
		for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
			if jn := colMap[j]; jn >= 0 {
				colIdx[n] = jn
				n++
			}
		}
	}
	out := &CSR{NRows: len(rows), NCols: nCols, RowPtr: rowPtr, ColIdx: colIdx}
	if check.Enabled {
		check.CSRWellFormed(out.NRows, out.NCols, out.RowPtr, out.ColIdx, len(out.ColIdx), "sparse.SelectPattern")
	}
	return out
}

// FillSelect is the value half of Select: a new matrix with t's pattern
// holding a.Select(rows, colMap, ·, pin)'s values, where t is
// a.SelectPattern(rows, colMap, ·) of a matrix with a's pattern.
func (t *CSR) FillSelect(a *CSR, rows, colMap []int, pin float64) *CSR {
	return &CSR{NRows: t.NRows, NCols: t.NCols, RowPtr: t.RowPtr, ColIdx: t.ColIdx, Val: t.selectValues(a, rows, colMap, pin)}
}

// selectValues returns the values FillSelect stores in t's pattern.
func (t *CSR) selectValues(a *CSR, rows, colMap []int, pin float64) []float64 {
	val := make([]float64, len(t.ColIdx))
	n := 0
	for _, r := range rows {
		if r < 0 {
			val[n] = pin
			n++
			continue
		}
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		cols := a.ColIdx[lo:hi]
		vals := a.Val[lo:hi:hi]
		vals = vals[:len(cols)]
		for k, j := range cols {
			if colMap[j] >= 0 {
				val[n] = 0 + vals[k]
				n++
			}
		}
	}
	return val
}

// At returns A(i,j) (zero when the entry is not stored). O(log row nnz).
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	k := lo + sort.SearchInts(a.ColIdx[lo:hi], j)
	if k < hi && a.ColIdx[k] == j {
		return a.Val[k]
	}
	return 0
}

// MulVec computes y = A·x. Rows are independent, so a product above
// pool.Grain is cut over the shared worker set when its helpers are free;
// MulVecRange gives a row the same bits in any window, so the result does
// not depend on whether, or how, it was.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.NCols || len(y) != a.NRows {
		panic("sparse: MulVec dimension mismatch")
	}
	sp := obs.Start(evSpMVCSR)
	pool.Run(a, x, y, a.NRows, 1, len(a.ColIdx))
	sp.EndFlops(2 * int64(len(a.ColIdx)))
}

// MulVecRange computes y[i] = (A·x)[i] for i in [lo, hi). It is the kernel
// for row-partitioned parallel products.
func (a *CSR) MulVecRange(x, y []float64, lo, hi int) {
	a.rangeKernel(nil, x, y, lo, hi)
}

// ResidualRange computes r[i] = b[i] - (A·x)[i] for i in [lo, hi): the
// row kernel of Residual, with the subtraction MulVec-then-subtract did in
// a second pass applied to the same row sum.
func (a *CSR) ResidualRange(b, x, r []float64, lo, hi int) {
	a.rangeKernel(b, x, r, lo, hi)
}

// rangeKernel is MulVecRange (rhs nil) and ResidualRange (rhs = b) in
// one. The inner loop ranges over per-row subslices of equal length so the
// compiler can prove the accesses in-bounds and drop the checks (see
// promlint -bce).
func (a *CSR) rangeKernel(rhs, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		p, q := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[p:q]
		vals := a.Val[p:q:q]
		vals = vals[:len(cols)]
		s := 0.0
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		if rhs != nil {
			s = rhs[i] - s
		}
		y[i] = s
	}
}

// MulVecFlops returns the flop count of one MulVec (2·nnz, the standard
// convention used in the paper's Mflop rates).
func (a *CSR) MulVecFlops() int64 { return 2 * int64(a.NNZ()) }

// Residual computes r = b - A·x in one pass over the rows, dispatched
// like MulVec.
func (a *CSR) Residual(b, x, r []float64) {
	if len(x) != a.NCols || len(r) != a.NRows || len(b) < a.NRows {
		panic("sparse: Residual dimension mismatch")
	}
	sp := obs.Start(evSpMVCSR)
	pool.RunResidual(a, b, x, r, a.NRows, 1, len(a.ColIdx))
	sp.EndFlops(2 * int64(len(a.ColIdx)))
}

// Diag returns the diagonal of A as a slice (zeros where absent).
func (a *CSR) Diag() []float64 {
	n := a.NRows
	if a.NCols < n {
		n = a.NCols
	}
	d := make([]float64, a.NRows)
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
	}
	return d
}

// Transpose returns Aᵀ.
func (a *CSR) Transpose() *CSR {
	nnz := a.NNZ()
	rowPtr := make([]int, a.NCols+1)
	for _, j := range a.ColIdx {
		rowPtr[j+1]++
	}
	for j := 0; j < a.NCols; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, a.NCols)
	copy(next, rowPtr[:a.NCols])
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			p := next[j]
			colIdx[p] = i
			val[p] = a.Val[k]
			next[j]++
		}
	}
	// Rows of the transpose come out sorted because we scan i ascending.
	out := &CSR{NRows: a.NCols, NCols: a.NRows, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if check.Enabled {
		check.CSRWellFormed(out.NRows, out.NCols, out.RowPtr, out.ColIdx, len(out.Val), "sparse.Transpose")
	}
	return out
}

// Mul returns C = A·B: a one-shot PlanProduct and Fill.
func (a *CSR) Mul(b *CSR) *CSR {
	p := PlanProduct(a, b)
	out := p.csr(make([]float64, p.ValLen()))
	p.Fill(a.Val, b.Val, out.Val)
	return out
}

// Scale multiplies every stored entry by s.
func (a *CSR) Scale(s float64) {
	for i := range a.Val {
		a.Val[i] *= s
	}
}

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	c := &CSR{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return c
}

// IsSymmetric reports whether A equals Aᵀ to within tol on every stored
// entry (relative to the largest entry magnitude).
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.NRows != a.NCols {
		return false
	}
	maxAbs := 0.0
	for _, v := range a.Val {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	if maxAbs == 0 {
		return true
	}
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if math.Abs(a.Val[k]-a.At(j, i)) > tol*maxAbs {
				return false
			}
		}
	}
	return true
}

// GatherLowerPacked extracts the lower triangle of the principal
// submatrix A(idx, idx) into l as a packed row-major triangle: entry
// (p, q), q <= p, pairing rows idx[p] and idx[q], lands at l[p(p+1)/2+q];
// positions A does not store are zero. l has len(idx)(len(idx)+1)/2
// entries — the layout la.FactorPacked factors in place. pos, of length
// NCols, maps every column in idx to its position there; what it holds
// for other columns does not matter (membership is checked against idx),
// so one array holding each column's position inside its own set serves a
// whole partition, and since it is only read, concurrent gathers too.
func (a *CSR) GatherLowerPacked(idx, pos []int, l []float64) {
	clear(l)
	off := 0
	for p, i := range idx {
		row := l[off : off+p+1]
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[lo:hi]
		vals := a.Val[lo:hi:hi]
		vals = vals[:len(cols)]
		for k, j := range cols {
			if q := pos[j]; uint(q) < uint(len(row)) && idx[q] == j {
				row[q] = vals[k]
			}
		}
		off += p + 1
	}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	rowPtr := make([]int, n+1)
	colIdx := make([]int, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colIdx[i] = i
		val[i] = 1
	}
	return &CSR{NRows: n, NCols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// RowNNZ returns the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// Row returns the column indices and values of row i (shared storage; do
// not modify).
func (a *CSR) Row(i int) ([]int, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// InfNorm returns the maximum absolute row sum.
func (a *CSR) InfNorm() float64 {
	m := 0.0
	for i := 0; i < a.NRows; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += math.Abs(a.Val[k])
		}
		if s > m {
			m = s
		}
	}
	return m
}
