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

// Select is BSR.Select on a viewed as a matrix of 1×1 blocks over its
// own arrays.
func (a *CSR) Select(rows, colMap []int, nCols int) *CSR {
	v := BSR{NBRows: a.NRows, NBCols: a.NCols, B: 1, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
	return v.Select(rows, colMap, nCols)
}

// Select returns the len(rows)×nCols scalar matrix whose row i is scalar
// row rows[i] of a — row rows[i]%B of block row rows[i]/B, read straight
// from the blocks — with its columns renumbered through colMap (old
// column → new column; a negative value drops the column). A count pass
// finds what every row keeps and, after the prefix sum, a pattern pass
// writes it, so the result is allocated at its final size; then a values
// pass fills it. All three
// run over the rows on the shared worker set (selectKernel). colMap must
// be increasing over the columns it keeps, which leaves every row sorted
// without a sort, and the result is bit for bit the Select of a.ToCSR().
// Values are stored as 0+v, as Builder.Add stores them: a stored -0.0
// comes out +0.0 and every other value unchanged.
func (a *BSR) Select(rows, colMap []int, nCols int) *CSR {
	k := &selectKernel{a: *a, rows: rows, colMap: colMap}
	k.t = &k.out
	k.out = CSR{NRows: len(rows), NCols: nCols, RowPtr: make([]int, len(rows)+1)}
	k.run()
	for i := range rows {
		k.out.RowPtr[i+1] += k.out.RowPtr[i]
	}
	k.out.ColIdx = make([]int, k.out.RowPtr[len(rows)])
	k.pass = patternPass
	k.run()
	if check.Enabled {
		check.CSRWellFormed(k.out.NRows, k.out.NCols, k.out.RowPtr, k.out.ColIdx, len(k.out.ColIdx), "sparse.Select")
	}
	k.out.Val = make([]float64, len(k.out.ColIdx))
	k.pass = valuesPass
	k.run()
	// The result drops the kernel's inputs, so that it keeps no more than
	// a few words alive beside its arrays.
	*k = selectKernel{out: k.out}
	return &k.out
}

// selectKernel is Select's three passes over the rows of its result t:
// row i counts the entries of a's scalar row rows[i] that colMap keeps
// into t.RowPtr[i+1], writes their new columns, or writes their values
// as 0+v.
type selectKernel struct {
	a      BSR
	t      *CSR
	rows   []int
	colMap []int
	pass   pass
	// out is Select's result, t pointing at it: one allocation for both.
	out CSR
}

// SelectKernels returns Select's count pass, which writes t.RowPtr[1:]
// uncumulated, its pattern pass, which writes t.ColIdx from the summed
// t.RowPtr, and its values pass, which writes t.Val, for
// TestKernelContract.
func (a *BSR) SelectKernels(t *CSR, rows, colMap []int) (count, pattern, values pool.ItemKernel) {
	k := selectKernel{a: *a, t: t, rows: rows, colMap: colMap}
	kp, kv := k, k
	kp.pass, kv.pass = patternPass, valuesPass
	return &k, &kp, &kv
}

// run runs the kernel's pass over every row on the shared worker set.
func (k *selectKernel) run() {
	pool.RunItems(k, len(k.rows), 1, k.a.NNZ())
}

// Items implements pool.ItemKernel. Scalar row r walks the blocks of
// block row r/B in order and, in each, row r%B's B entries: the order of
// r's entries in the expansion.
func (k *selectKernel) Items(_, lo, hi int) {
	a, t, colMap := &k.a, k.t, k.colMap
	b := a.B
	bb := b * b
	for i := lo; i < hi; i++ {
		r := k.rows[i]
		n := 0
		if k.pass != countPass {
			n = t.RowPtr[i]
		}
		p0, p1 := a.RowPtr[r/b], a.RowPtr[r/b+1]
		blockCols := a.ColIdx[p0:p1]
		switch k.pass {
		case countPass:
			for _, jb := range blockCols {
				for _, jn := range colMap[jb*b : jb*b+b] {
					if jn >= 0 {
						n++
					}
				}
			}
		case patternPass:
			for _, jb := range blockCols {
				for _, jn := range colMap[jb*b : jb*b+b] {
					if jn >= 0 {
						t.ColIdx[n] = jn
						n++
					}
				}
			}
		default:
			vals := a.Val[p0*bb+r%b*b:]
			for q, jb := range blockCols {
				row := vals[q*bb : q*bb+b]
				for c, jn := range colMap[jb*b : jb*b+b] {
					if jn >= 0 {
						t.Val[n] = 0 + row[c]
						n++
					}
				}
			}
		}
		if k.pass == countPass {
			t.RowPtr[i+1] = n
		}
	}
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

// GatherLowerEnvelope extracts the lower triangle of the principal
// submatrix A(idx, idx) into l as an envelope laid out by off
// (la.EnvelopeOffsets): row p, pairing row idx[p] with columns idx[q] for
// q from its first stored column p+1-(off[p+1]-off[p]) to p, lands at
// l[off[p]:off[p+1]]; positions A does not store are zero. That is the
// layout la.FactorEnvelope factors in place. An in-block entry left of
// its row's envelope means off was not planned from A's pattern: it is
// never dropped (a check under promdebug, an index panic without). pos,
// of length NCols, maps every column in idx to its position there; what it
// holds for other columns does not matter (membership is checked against
// idx), so one array holding each column's position inside its own set
// serves a whole partition, and since it is only read, concurrent gathers
// too.
func (a *CSR) GatherLowerEnvelope(idx, pos, off []int, l []float64) {
	clear(l)
	for p, i := range idx {
		row := l[off[p]:off[p+1]]
		first := p + 1 - len(row)
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[lo:hi]
		vals := a.Val[lo:hi:hi]
		vals = vals[:len(cols)]
		for k, j := range cols {
			if q := pos[j]; uint(q) <= uint(p) && idx[q] == j {
				if check.Enabled {
					check.Assert(q >= first, "sparse: entry (%d,%d) lies left of block row %d's envelope, which starts at %d", i, j, p, first)
				}
				row[q-first] = vals[k]
			}
		}
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
