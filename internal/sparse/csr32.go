package sparse

import (
	"math"
	"sort"

	"prometheus/internal/check"
	"prometheus/internal/la"
	"prometheus/internal/obs"
)

// CSR32 is compressed sparse row storage with float32 values and int32
// column indices: 8 bytes per stored entry against scalar CSR's 16. It is
// the coarse-level storage of the mixed-precision multigrid mode — the
// smoothers run on f32 matrix data while every vector, accumulator and
// grid transfer stays float64, so only the operator representation is
// narrowed, never the arithmetic. Kernels widen each value through la.W64
// (one register instruction) and accumulate in float64; the promlint
// accumulation-width rule enforces that discipline mechanically.
type CSR32 struct {
	NRows, NCols int
	RowPtr       []int     // len NRows+1
	ColIdx       []int32   // len nnz, sorted within each row
	Val          []float32 // len nnz
}

// NNZ returns the number of stored entries.
func (a *CSR32) NNZ() int { return len(a.ColIdx) }

// Rows returns the number of rows. Part of the Operator interface.
func (a *CSR32) Rows() int { return a.NRows }

// Cols returns the number of columns. Part of the Operator interface.
func (a *CSR32) Cols() int { return a.NCols }

// MulVecFlops returns the flop count of one MulVec (2·nnz).
func (a *CSR32) MulVecFlops() int64 { return 2 * int64(a.NNZ()) }

// ToCSR32 narrows a scalar matrix into f32 storage through the sanctioned
// la.To32 boundary. Under promdebug it asserts every value is finite and
// within float32 range first, so an unrepresentable coarse operator fails
// at build time, not inside a smoother sweep.
func ToCSR32(a *CSR) *CSR32 {
	if check.Enabled {
		check.F32Representable(a.Val, "sparse.ToCSR32")
	}
	colIdx := make([]int32, len(a.ColIdx))
	for k, j := range a.ColIdx {
		if j > math.MaxInt32 {
			panic("sparse: ToCSR32 column index overflows int32")
		}
		colIdx[k] = int32(j)
	}
	val := make([]float32, len(a.Val))
	la.To32(val, a.Val)
	return &CSR32{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: colIdx,
		Val:    val,
	}
}

// ToCSR widens the storage back to scalar CSR (exact: widening loses
// nothing, so ToCSR32(a).ToCSR() differs from a by at most one f32
// rounding per entry, locked in by FuzzMixedParity).
func (a *CSR32) ToCSR() *CSR {
	colIdx := make([]int, len(a.ColIdx))
	for k, j := range a.ColIdx {
		colIdx[k] = int(j)
	}
	val := make([]float64, len(a.Val))
	la.Wide64(val, a.Val)
	return &CSR{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: colIdx,
		Val:    val,
	}
}

// MulVec computes y = A·x with float64 accumulation.
func (a *CSR32) MulVec(x, y []float64) {
	if len(x) != a.NCols || len(y) != a.NRows {
		panic("sparse: CSR32.MulVec dimension mismatch")
	}
	sp := obs.Start(evSpMVCSR32)
	a.MulVecRange(x, y, 0, a.NRows)
	sp.EndFlops(2 * int64(len(a.ColIdx)))
}

// MulVecRange computes y[i] = (A·x)[i] for i in [lo, hi) — the same
// row-partitioned kernel contract as CSR.MulVecRange, so the pool path
// carries over unchanged. Each stored value is widened in-register; the
// row sum is a float64.
func (a *CSR32) MulVecRange(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		p, q := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[p:q]
		vals := a.Val[p:q:q]
		vals = vals[:len(cols)]
		s := 0.0
		for k, j := range cols {
			s += la.W64(vals[k]) * x[j]
		}
		y[i] = s
	}
}

// Residual computes r = b - A·x.
func (a *CSR32) Residual(b, x, r []float64) {
	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
}

// At returns A(i,j) widened to float64 (zero when absent).
func (a *CSR32) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	k := lo + sort.Search(hi-lo, func(t int) bool { return int(a.ColIdx[lo+t]) >= j })
	if k < hi && int(a.ColIdx[k]) == j {
		return la.W64(a.Val[k])
	}
	return 0
}

// Diag returns the widened diagonal (zeros where absent).
func (a *CSR32) Diag() []float64 {
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

// Row returns the column indices and values of row i (shared storage; do
// not modify). It is the f32 counterpart of CSR.Row for setup-time
// traversal.
func (a *CSR32) Row(i int) ([]int32, []float32) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// StorageBytes reports the bytes one storage format holds resident per
// operator: values, column indices and row pointers. It feeds the
// bytes/dof accounting of the storage-mode gates and of bench/;
// unsupported operator types count only what the Operator interface
// exposes (8 bytes per stored entry).
func StorageBytes(op Operator) int64 {
	switch a := op.(type) {
	case *CSR:
		return int64(8*len(a.Val) + 8*len(a.ColIdx) + 8*len(a.RowPtr))
	case *CSR32:
		return int64(4*len(a.Val) + 4*len(a.ColIdx) + 8*len(a.RowPtr))
	case *BSR:
		return int64(8*len(a.Val) + 8*len(a.ColIdx) + 8*len(a.RowPtr))
	case *BSR32:
		return int64(4*len(a.Val) + 4*len(a.ColIdx) + 8*len(a.RowPtr))
	default:
		return 8 * int64(op.NNZ())
	}
}
