package sparse

import (
	"math"
	"sort"

	"prometheus/internal/check"
	"prometheus/internal/la"
	"prometheus/internal/obs"
)

// BSR32 is node-block storage with float32 blocks and int32 block column
// indices — the blocked twin of CSR32 and the most compact coarse-level
// format: for 3-dof elasticity one 4-byte index amortizes over nine 4-byte
// values, 40 bytes per block against BSR's 80. The kernels mirror BSR's
// register-blocked shape exactly — three float64 row accumulators live in
// registers across each block row and every stored value is widened
// through la.W64 on use — so narrowing changes the operator's stored
// values, never the accumulation arithmetic.
type BSR32 struct {
	NBRows, NBCols int // dimensions in blocks
	B              int // block size (3 for elasticity)
	RowPtr         []int
	ColIdx         []int32 // block column indices, sorted within each block row
	Val            []float32
}

// Rows returns the number of scalar rows.
func (a *BSR32) Rows() int { return a.NBRows * a.B }

// Cols returns the number of scalar columns.
func (a *BSR32) Cols() int { return a.NBCols * a.B }

// NNZ returns the number of stored scalar entries.
func (a *BSR32) NNZ() int { return len(a.ColIdx) * a.B * a.B }

// NNZBlocks returns the number of stored blocks.
func (a *BSR32) NNZBlocks() int { return len(a.ColIdx) }

// BlockSize returns the scalar block dimension (the BlockDiagonaler
// capability).
func (a *BSR32) BlockSize() int { return a.B }

// MulVecFlops returns the flop count of one MulVec (2·nnz).
func (a *BSR32) MulVecFlops() int64 { return 2 * int64(a.NNZ()) }

// ToBSR32 narrows blocked storage through the sanctioned la.To32 boundary,
// asserting f32 representability under promdebug exactly like ToCSR32.
func ToBSR32(a *BSR) *BSR32 {
	if check.Enabled {
		check.F32Representable(a.Val, "sparse.ToBSR32")
	}
	colIdx := make([]int32, len(a.ColIdx))
	for k, j := range a.ColIdx {
		if j > math.MaxInt32 {
			panic("sparse: ToBSR32 block column index overflows int32")
		}
		colIdx[k] = int32(j)
	}
	val := make([]float32, len(a.Val))
	la.To32(val, a.Val)
	return &BSR32{
		NBRows: a.NBRows,
		NBCols: a.NBCols,
		B:      a.B,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: colIdx,
		Val:    val,
	}
}

// ToBSR widens the storage back to scalar-valued blocked form (exact).
func (a *BSR32) ToBSR() *BSR {
	colIdx := make([]int, len(a.ColIdx))
	for k, j := range a.ColIdx {
		colIdx[k] = int(j)
	}
	val := make([]float64, len(a.Val))
	la.Wide64(val, a.Val)
	return &BSR{
		NBRows: a.NBRows,
		NBCols: a.NBCols,
		B:      a.B,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: colIdx,
		Val:    val,
	}
}

// ToCSR expands to scalar CSR through the widened BSR (setup-time only).
func (a *BSR32) ToCSR() *CSR { return a.ToBSR().ToCSR() }

// MulVec computes y = A·x with float64 accumulation.
func (a *BSR32) MulVec(x, y []float64) {
	if len(x) != a.Cols() || len(y) != a.Rows() {
		panic("sparse: BSR32.MulVec dimension mismatch")
	}
	sp := obs.Start(evSpMVBSR32)
	if a.B == 3 {
		a.mulVec3(x, y, 0, a.NBRows)
	} else {
		a.mulVecBlocks(x, y, 0, a.NBRows)
	}
	sp.EndFlops(a.MulVecFlops())
}

// mulVec3 is the register-blocked 3x3 micro-kernel for block rows
// [lo, hi): BSR.mulVec3 with each stored value widened on use. The three
// row accumulators are float64 and the addition order is the same
// left-to-right sweep, so the only difference from the f64 kernel is the
// one rounding each value took when it was narrowed into storage.
func (a *BSR32) mulVec3(x, y []float64, lo, hi int) {
	for ib := lo; ib < hi; ib++ {
		p, q := a.RowPtr[ib], a.RowPtr[ib+1]
		cols := a.ColIdx[p:q]
		vals := a.Val[9*p : 9*q : 9*q]
		vals = vals[:9*len(cols)]
		var y0, y1, y2 float64
		for k, jb := range cols {
			v := vals[9*k : 9*k+9 : 9*k+9]
			x0, x1, x2 := x[3*jb], x[3*jb+1], x[3*jb+2]
			y0 += la.W64(v[0]) * x0
			y0 += la.W64(v[1]) * x1
			y0 += la.W64(v[2]) * x2
			y1 += la.W64(v[3]) * x0
			y1 += la.W64(v[4]) * x1
			y1 += la.W64(v[5]) * x2
			y2 += la.W64(v[6]) * x0
			y2 += la.W64(v[7]) * x1
			y2 += la.W64(v[8]) * x2
		}
		y[3*ib] = y0
		y[3*ib+1] = y1
		y[3*ib+2] = y2
	}
}

// mulVecBlocks is the generic block-size kernel for block rows [lo, hi).
func (a *BSR32) mulVecBlocks(x, y []float64, lo, hi int) {
	b := a.B
	bb := b * b
	for ib := lo; ib < hi; ib++ {
		p, q := a.RowPtr[ib], a.RowPtr[ib+1]
		yr := y[ib*b : ib*b+b : ib*b+b]
		for d := range yr {
			yr[d] = 0
		}
		for k := p; k < q; k++ {
			jb := int(a.ColIdx[k])
			v := a.Val[k*bb : k*bb+bb : k*bb+bb]
			xr := x[jb*b : jb*b+b : jb*b+b]
			for d := 0; d < b; d++ {
				s := yr[d]
				row := v[d*b : d*b+b]
				for c, vv := range row {
					s += la.W64(vv) * xr[c]
				}
				yr[d] = s
			}
		}
	}
}

// MulVecRange computes y[i] = (A·x)[i] for scalar rows i in [lo, hi) —
// block-aligned ranges take the blocked kernels, ragged edges fall back to
// a per-scalar-row loop, mirroring BSR.MulVecRange so the pool dispatch
// carries over.
func (a *BSR32) MulVecRange(x, y []float64, lo, hi int) {
	b := a.B
	if lo%b == 0 && hi%b == 0 {
		if b == 3 {
			a.mulVec3(x, y, lo/3, hi/3)
		} else {
			a.mulVecBlocks(x, y, lo/b, hi/b)
		}
		return
	}
	bb := b * b
	for i := lo; i < hi; i++ {
		ib, d := i/b, i%b
		s := 0.0
		for k := a.RowPtr[ib]; k < a.RowPtr[ib+1]; k++ {
			jb := int(a.ColIdx[k])
			row := a.Val[k*bb+d*b : k*bb+d*b+b]
			xr := x[jb*b : jb*b+b : jb*b+b]
			for c, vv := range row {
				s += la.W64(vv) * xr[c]
			}
		}
		y[i] = s
	}
}

// Residual computes r = b - A·x.
func (a *BSR32) Residual(b, x, r []float64) {
	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
}

// At returns A(i,j) widened to float64 (zero when the block is absent).
func (a *BSR32) At(i, j int) float64 {
	b := a.B
	ib, jb := i/b, j/b
	lo, hi := a.RowPtr[ib], a.RowPtr[ib+1]
	k := lo + sort.Search(hi-lo, func(t int) bool { return int(a.ColIdx[lo+t]) >= jb })
	if k < hi && int(a.ColIdx[k]) == jb {
		return la.W64(a.Val[k*b*b+(i%b)*b+(j%b)])
	}
	return 0
}

// Diag returns the widened scalar diagonal (zeros where the diagonal block
// is absent).
func (a *BSR32) Diag() []float64 {
	b := a.B
	d := make([]float64, a.Rows())
	n := a.NBRows
	if a.NBCols < n {
		n = a.NBCols
	}
	for ib := 0; ib < n; ib++ {
		lo, hi := a.RowPtr[ib], a.RowPtr[ib+1]
		k := lo + sort.Search(hi-lo, func(t int) bool { return int(a.ColIdx[lo+t]) >= ib })
		if k < hi && int(a.ColIdx[k]) == ib {
			blk := a.Val[k*b*b : (k+1)*b*b]
			for dd := 0; dd < b; dd++ {
				d[ib*b+dd] = la.W64(blk[dd*b+dd])
			}
		}
	}
	return d
}

// DiagBlocks returns the BxB diagonal blocks widened to float64, packed
// row-major per block row (zero blocks where absent). The node-block
// smoothers invert these once at setup — the inversion itself runs in
// float64, only the stored operator is narrow.
func (a *BSR32) DiagBlocks() []float64 {
	if a.NBRows != a.NBCols {
		panic("sparse: BSR32.DiagBlocks wants a square matrix")
	}
	b := a.B
	bb := b * b
	out := make([]float64, a.NBRows*bb)
	for ib := 0; ib < a.NBRows; ib++ {
		lo, hi := a.RowPtr[ib], a.RowPtr[ib+1]
		k := lo + sort.Search(hi-lo, func(t int) bool { return int(a.ColIdx[lo+t]) >= ib })
		if k < hi && int(a.ColIdx[k]) == ib {
			la.Wide64(out[ib*bb:(ib+1)*bb], a.Val[k*bb:(k+1)*bb])
		}
	}
	return out
}
