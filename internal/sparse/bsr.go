package sparse

import (
	"fmt"
	"math"
	"sort"

	"prometheus/internal/check"
	"prometheus/internal/obs"
	"prometheus/internal/pool"
)

// BSR is a block compressed sparse row matrix: the sparsity pattern is
// stored at node-block granularity and every stored block is a dense BxB
// tile. It is the analogue of PETSc's BAIJ format the paper credits for
// much of Prometheus's per-processor Mflop rate: for 3-dof-per-node
// elasticity one column index amortizes over nine matrix entries, so the
// SpMV streams 1/9th of the index traffic of scalar CSR and keeps three
// x-values in registers per block.
//
// Block k (the k-th stored block overall) lives in Val[k*B*B:(k+1)*B*B],
// row-major: entry (d,c) of the block at Val[k*B*B+d*B+c].
type BSR struct {
	NBRows, NBCols int // dimensions in blocks
	B              int // block size (3 for elasticity)
	RowPtr         []int
	ColIdx         []int // block column indices, sorted within each block row
	Val            []float64
}

// Rows returns the number of scalar rows.
func (a *BSR) Rows() int { return a.NBRows * a.B }

// Cols returns the number of scalar columns.
func (a *BSR) Cols() int { return a.NBCols * a.B }

// NNZ returns the number of stored scalar entries (every entry of every
// stored block, explicit zeros included).
func (a *BSR) NNZ() int { return len(a.ColIdx) * a.B * a.B }

// MulVecFlops returns the flop count of one MulVec (2·nnz).
func (a *BSR) MulVecFlops() int64 { return 2 * int64(a.NNZ()) }

// MulVec computes y = A·x, dispatched like CSR.MulVec in block-aligned
// chunks so every participant runs the register-blocked kernel.
func (a *BSR) MulVec(x, y []float64) {
	if len(x) != a.Cols() || len(y) != a.Rows() {
		panic("sparse: BSR.MulVec dimension mismatch")
	}
	sp := obs.Start(evSpMVBSR)
	pool.Run(a, x, y, a.Rows(), a.B, a.NNZ())
	sp.EndFlops(a.MulVecFlops())
}

// mulVec3 is the register-blocked 3x3 micro-kernel: y rows [3*lo, 3*hi),
// as the product A·x when b is nil and as the residual b - A·x otherwise.
// The three row accumulators live in registers across the whole block row,
// and each block contributes with the same left-to-right addition order as
// the expanded CSR row — y0 += v0*x0; y0 += v1*x1; ... — so the result is
// bitwise identical to CSR.MulVec on the expanded matrix (ulp_equal_csr,
// locked by TestBSRMulVecMatchesCSR).
func (a *BSR) mulVec3(b, x, y []float64, lo, hi int) {
	for ib := lo; ib < hi; ib++ {
		p, q := a.RowPtr[ib], a.RowPtr[ib+1]
		cols := a.ColIdx[p:q]
		vals := a.Val[9*p : 9*q : 9*q]
		vals = vals[:9*len(cols)]
		var y0, y1, y2 float64
		for k, jb := range cols {
			v := vals[9*k : 9*k+9 : 9*k+9]
			x0, x1, x2 := x[3*jb], x[3*jb+1], x[3*jb+2]
			y0 += v[0] * x0
			y0 += v[1] * x1
			y0 += v[2] * x2
			y1 += v[3] * x0
			y1 += v[4] * x1
			y1 += v[5] * x2
			y2 += v[6] * x0
			y2 += v[7] * x1
			y2 += v[8] * x2
		}
		if b != nil {
			bb := b[3*ib : 3*ib+3 : 3*ib+3]
			y0, y1, y2 = bb[0]-y0, bb[1]-y1, bb[2]-y2
		}
		y[3*ib] = y0
		y[3*ib+1] = y1
		y[3*ib+2] = y2
	}
}

// mulVecBlocks is the generic block-size kernel for block rows [lo, hi);
// rhs is nil for the product and b for the residual, as in mulVec3.
func (a *BSR) mulVecBlocks(rhs, x, y []float64, lo, hi int) {
	b := a.B
	bb := b * b
	for ib := lo; ib < hi; ib++ {
		p, q := a.RowPtr[ib], a.RowPtr[ib+1]
		yr := y[ib*b : ib*b+b : ib*b+b]
		for d := range yr {
			yr[d] = 0
		}
		for k := p; k < q; k++ {
			jb := a.ColIdx[k]
			v := a.Val[k*bb : k*bb+bb : k*bb+bb]
			xr := x[jb*b : jb*b+b : jb*b+b]
			for d := 0; d < b; d++ {
				s := yr[d]
				row := v[d*b : d*b+b]
				for c, vv := range row {
					s += vv * xr[c]
				}
				yr[d] = s
			}
		}
		if rhs != nil {
			br := rhs[ib*b : ib*b+b : ib*b+b]
			for d := range yr {
				yr[d] = br[d] - yr[d]
			}
		}
	}
}

// MulVecRange computes y[i] = (A·x)[i] for scalar rows i in [lo, hi).
// Block-aligned ranges take the blocked kernel; ragged edges fall back to
// a per-scalar-row loop with the same left-to-right addition order.
func (a *BSR) MulVecRange(x, y []float64, lo, hi int) {
	a.rangeKernel(nil, x, y, lo, hi)
}

// ResidualRange computes r[i] = b[i] - (A·x)[i] for scalar rows i in
// [lo, hi): the row kernel of Residual, one pass with MulVecRange's sums.
func (a *BSR) ResidualRange(b, x, r []float64, lo, hi int) {
	a.rangeKernel(b, x, r, lo, hi)
}

// rangeKernel is MulVecRange (rhs nil) and ResidualRange (rhs = b) in one.
func (a *BSR) rangeKernel(rhs, x, y []float64, lo, hi int) {
	b := a.B
	if lo%b == 0 && hi%b == 0 {
		if b == 3 {
			a.mulVec3(rhs, x, y, lo/3, hi/3)
		} else {
			a.mulVecBlocks(rhs, x, y, lo/b, hi/b)
		}
		return
	}
	bb := b * b
	for i := lo; i < hi; i++ {
		ib, d := i/b, i%b
		s := 0.0
		for k := a.RowPtr[ib]; k < a.RowPtr[ib+1]; k++ {
			jb := a.ColIdx[k]
			row := a.Val[k*bb+d*b : k*bb+d*b+b]
			xr := x[jb*b : jb*b+b : jb*b+b]
			for c, vv := range row {
				s += vv * xr[c]
			}
		}
		if rhs != nil {
			s = rhs[i] - s
		}
		y[i] = s
	}
}

// Residual computes r = b - A·x in one pass over the block rows,
// dispatched like MulVec.
func (a *BSR) Residual(b, x, r []float64) {
	if len(x) != a.Cols() || len(r) != a.Rows() || len(b) < a.Rows() {
		panic("sparse: BSR.Residual dimension mismatch")
	}
	sp := obs.Start(evSpMVBSR)
	pool.RunResidual(a, b, x, r, a.Rows(), a.B, a.NNZ())
	sp.EndFlops(a.MulVecFlops())
}

// At returns A(i,j) in scalar coordinates (zero when the block is absent).
func (a *BSR) At(i, j int) float64 {
	b := a.B
	ib, jb := i/b, j/b
	lo, hi := a.RowPtr[ib], a.RowPtr[ib+1]
	k := lo + sort.SearchInts(a.ColIdx[lo:hi], jb)
	if k < hi && a.ColIdx[k] == jb {
		return a.Val[k*b*b+(i%b)*b+(j%b)]
	}
	return 0
}

// Diag returns the scalar diagonal (zeros where the diagonal block is
// absent).
func (a *BSR) Diag() []float64 {
	b := a.B
	d := make([]float64, a.Rows())
	n := a.NBRows
	if a.NBCols < n {
		n = a.NBCols
	}
	for ib := 0; ib < n; ib++ {
		lo, hi := a.RowPtr[ib], a.RowPtr[ib+1]
		k := lo + sort.SearchInts(a.ColIdx[lo:hi], ib)
		if k < hi && a.ColIdx[k] == ib {
			blk := a.Val[k*b*b : (k+1)*b*b]
			for dd := 0; dd < b; dd++ {
				d[ib*b+dd] = blk[dd*b+dd]
			}
		}
	}
	return d
}

// BlockPattern is the pattern of a scalar matrix blocked with block size
// b (Val nil; FillFromCSR writes the values): every stored scalar entry
// lands in a block, and positions the scalar matrix never stores become
// explicit zeros (fill). Dimensions must be divisible by b. A count pass
// finds how many distinct block columns every block row has, and after
// their prefix sum a fill pass collects and sorts them, both over the
// block rows on the shared worker set (blockKernel).
func BlockPattern(a *CSR, b int) (*BSR, error) {
	if b < 1 {
		return nil, fmt.Errorf("sparse: BlockPattern block size %d < 1", b)
	}
	if a.NRows%b != 0 || a.NCols%b != 0 {
		return nil, fmt.Errorf("sparse: BlockPattern %dx%d not divisible by block size %d", a.NRows, a.NCols, b)
	}
	nbr, nbc := a.NRows/b, a.NCols/b
	t := &BSR{NBRows: nbr, NBCols: nbc, B: b, RowPtr: make([]int, nbr+1)}
	k := &blockKernel{a: a, t: t}
	pool.RunItems(k, nbr, 1, a.NNZ())
	for ib := 0; ib < nbr; ib++ {
		t.RowPtr[ib+1] += t.RowPtr[ib]
	}
	t.ColIdx = make([]int, t.RowPtr[nbr])
	k.pass = patternPass
	pool.RunItems(k, nbr, 1, a.NNZ())
	if check.Enabled {
		check.CSRWellFormed(nbr, nbc, t.RowPtr, t.ColIdx, len(t.ColIdx), "sparse.BlockPattern")
	}
	return t, nil
}

// pass says what one run of a conversion kernel over the rows of its
// result writes: each row's entry count at RowPtr[i+1] (countPass), its
// columns (patternPass) or its values (valuesPass).
type pass uint8

const (
	countPass pass = iota
	patternPass
	valuesPass
)

// blockKernel is BlockPattern's count and pattern passes over the block
// rows of t, the blocked pattern of a. A lane marks the block columns of
// the block row it is on, stamped with the row — plus NBRows in the
// pattern pass — so that no pass clears the marks of another.
type blockKernel struct {
	a    *CSR
	t    *BSR
	pass pass
	mark [pool.Lanes][]int32
}

// BlockPatternKernels returns BlockPattern's count pass, which writes
// t.RowPtr[1:] uncumulated, and its pattern pass, which writes t.ColIdx
// from the summed t.RowPtr, for TestKernelContract.
func BlockPatternKernels(a *CSR, t *BSR) (count, fill pool.ItemKernel) {
	return &blockKernel{a: a, t: t}, &blockKernel{a: a, t: t, pass: patternPass}
}

// Items implements pool.ItemKernel.
func (k *blockKernel) Items(w, lo, hi int) {
	t, b, a := k.t, k.t.B, k.a
	mark := k.mark[w]
	if mark == nil {
		mark = make([]int32, t.NBCols)
		for i := range mark {
			mark[i] = -1
		}
		k.mark[w] = mark
	}
	off := 0
	if k.pass == patternPass {
		off = t.NBRows
	}
	for ib := lo; ib < hi; ib++ {
		stamp := int32(off + ib)
		n := 0
		if k.pass == patternPass {
			n = t.RowPtr[ib]
		}
		for _, j := range a.ColIdx[a.RowPtr[ib*b]:a.RowPtr[ib*b+b]] {
			if jb := j / b; mark[jb] != stamp {
				mark[jb] = stamp
				if k.pass == patternPass {
					t.ColIdx[n] = jb
				}
				n++
			}
		}
		if k.pass == patternPass {
			sort.Ints(t.ColIdx[t.RowPtr[ib]:n])
		} else {
			t.RowPtr[ib+1] = n
		}
	}
}

// FillFromCSR is the value half of the re-blocking: a new matrix with
// t's pattern holding a's values, where t is BlockPattern of a matrix
// with a's pattern. It runs over the block rows on the shared worker set
// (reblockKernel).
func (t *BSR) FillFromCSR(a *CSR) *BSR {
	out := &BSR{NBRows: t.NBRows, NBCols: t.NBCols, B: t.B, RowPtr: t.RowPtr, ColIdx: t.ColIdx, Val: make([]float64, t.NNZ())}
	pool.RunItems(t.FillFromCSRKernel(a, out.Val), t.NBRows, 1, a.NNZ())
	return out
}

// reblockKernel is FillFromCSR's pass over the block rows of t: block row
// ib writes the entries of a's scalar rows ib·B … ib·B+B-1 into its
// blocks of val. A scalar row's columns are sorted, so its block columns
// are met in t's order and one cursor per row finds each entry's block.
// Block positions a does not store are left as they are.
type reblockKernel struct {
	a   *CSR
	t   *BSR
	val []float64
}

// FillFromCSRKernel returns FillFromCSR's pass writing a's values into
// val, laid out as t's, for TestKernelContract.
func (t *BSR) FillFromCSRKernel(a *CSR, val []float64) pool.ItemKernel {
	return &reblockKernel{a: a, t: t, val: val}
}

// Items implements pool.ItemKernel.
func (k *reblockKernel) Items(_, lo, hi int) {
	t, a := k.t, k.a
	b := t.B
	bb := b * b
	for i := lo * b; i < hi*b; i++ {
		ib, d := i/b, i%b
		p := t.RowPtr[ib]
		p0, p1 := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[p0:p1]
		vals := a.Val[p0:p1:p1]
		vals = vals[:len(cols)]
		for q, j := range cols {
			for t.ColIdx[p] != j/b {
				p++
			}
			k.val[p*bb+d*b+j%b] = vals[q]
		}
	}
}

// ToCSR expands the blocked matrix to scalar CSR, emitting all B*B entries
// of every stored block (explicit zeros included). The expansion of an
// assembled matrix round-trips bitwise through BlockPattern and
// FillFromCSR. It is
// ScalarPattern and FillFromBSR in one.
func (a *BSR) ToCSR() *CSR {
	return a.ScalarPattern().FillFromBSR(a)
}

// ScalarPattern is the pattern half of ToCSR (Val nil). Every scalar row
// of block row ib has B entries per block, so its entries start at
// B²·RowPtr[ib] and no count pass is needed: one pass over the block rows
// writes the row pointers and columns on the shared worker set
// (expandKernel).
func (a *BSR) ScalarPattern() *CSR {
	out := &CSR{NRows: a.Rows(), NCols: a.Cols(), RowPtr: make([]int, a.Rows()+1), ColIdx: make([]int, a.NNZ())}
	pool.RunItems(a.ScalarPatternKernel(out), a.NBRows, 1, a.NNZ())
	if check.Enabled {
		check.CSRWellFormed(out.NRows, out.NCols, out.RowPtr, out.ColIdx, len(out.ColIdx), "sparse.BSR.ScalarPattern")
	}
	return out
}

// FillFromBSR is the value half of ToCSR: a new matrix with t's pattern
// holding a's values, where t is the ScalarPattern of a matrix with a's
// pattern, written over a's block rows on the shared worker set.
func (t *CSR) FillFromBSR(a *BSR) *CSR {
	out := &CSR{NRows: t.NRows, NCols: t.NCols, RowPtr: t.RowPtr, ColIdx: t.ColIdx, Val: make([]float64, len(t.ColIdx))}
	pool.RunItems(a.FillFromBSRKernel(out), a.NBRows, 1, a.NNZ())
	return out
}

// expandKernel is the ToCSR expansion of a into c over a's block rows:
// block row ib writes scalar rows ib·B … ib·B+B-1 of c, from position
// B²·RowPtr[ib] — in the pattern pass their row pointers c.RowPtr[i+1]
// and columns, in the values pass their values.
type expandKernel struct {
	a    *BSR
	c    *CSR
	pass pass
}

// ScalarPatternKernel returns ScalarPattern's pass writing out.RowPtr[1:]
// and out.ColIdx, and FillFromBSRKernel the value pass writing out.Val,
// for TestKernelContract.
func (a *BSR) ScalarPatternKernel(out *CSR) pool.ItemKernel {
	return &expandKernel{a: a, c: out, pass: patternPass}
}

// FillFromBSRKernel: see ScalarPatternKernel.
func (a *BSR) FillFromBSRKernel(out *CSR) pool.ItemKernel {
	return &expandKernel{a: a, c: out, pass: valuesPass}
}

// Items implements pool.ItemKernel.
func (k *expandKernel) Items(_, lo, hi int) {
	a, c := k.a, k.c
	b := a.B
	bb := b * b
	for ib := lo; ib < hi; ib++ {
		p, q := a.RowPtr[ib], a.RowPtr[ib+1]
		n := p * bb
		for d := 0; d < b; d++ {
			if k.pass == valuesPass {
				for blk := p; blk < q; blk++ {
					n += copy(c.Val[n:], a.Val[blk*bb+d*b:blk*bb+d*b+b])
				}
				continue
			}
			for _, jb := range a.ColIdx[p:q] {
				for cc := 0; cc < b; cc++ {
					c.ColIdx[n] = jb*b + cc
					n++
				}
			}
			c.RowPtr[ib*b+d+1] = n
		}
	}
}

// GatherLowerEnvelope is CSR.GatherLowerEnvelope for the expanded
// matrix, read straight from the blocks: scalar row i is row i%B of block
// row i/B, and column c of stored block k is scalar column B·ColIdx[k]+c.
func (a *BSR) GatherLowerEnvelope(idx, pos, off []int, l []float64) {
	clear(l)
	b := a.B
	bb := b * b
	for p, i := range idx {
		row := l[off[p]:off[p+1]]
		first := p + 1 - len(row)
		ib, d := i/b, i%b
		for k := a.RowPtr[ib]; k < a.RowPtr[ib+1]; k++ {
			j0 := a.ColIdx[k] * b
			for c, v := range a.Val[k*bb+d*b : k*bb+d*b+b] {
				j := j0 + c
				if q := pos[j]; uint(q) <= uint(p) && idx[q] == j {
					if check.Enabled {
						check.Assert(q >= first, "sparse: entry (%d,%d) lies left of block row %d's envelope, which starts at %d", i, j, p, first)
					}
					row[q-first] = v
				}
			}
		}
	}
}

// IsSymmetric reports whether the expanded matrix equals its transpose to
// within tol, mirroring CSR.IsSymmetric. Setup-time diagnostic only.
func (a *BSR) IsSymmetric(tol float64) bool {
	if a.NBRows != a.NBCols {
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
	b := a.B
	bb := b * b
	for ib := 0; ib < a.NBRows; ib++ {
		for k := a.RowPtr[ib]; k < a.RowPtr[ib+1]; k++ {
			jb := a.ColIdx[k]
			for d := 0; d < b; d++ {
				for c := 0; c < b; c++ {
					if math.Abs(a.Val[k*bb+d*b+c]-a.At(jb*b+c, ib*b+d)) > tol*maxAbs {
						return false
					}
				}
			}
		}
	}
	return true
}

// BlockBuilder accumulates dense BxB blocks (duplicates are summed
// element-wise) and converts to BSR. It is the assembly-facing twin of
// Builder: finite-element code adds one block per node pair instead of b*b
// scalar triplets.
type BlockBuilder struct {
	nbRows, nbCols, b int
	rows              []map[int][]float64
}

// NewBlockBuilder returns a builder for an r x c block matrix with BxB
// blocks (dimensions in blocks, not scalars).
func NewBlockBuilder(r, c, b int) *BlockBuilder {
	if b < 1 {
		panic(fmt.Sprintf("sparse: NewBlockBuilder block size %d < 1", b))
	}
	return &BlockBuilder{nbRows: r, nbCols: c, b: b, rows: make([]map[int][]float64, r)}
}

// AddBlock accumulates A(i,j) += blk, where blk is a row-major BxB dense
// block and i, j are block (node) indices.
func (bb *BlockBuilder) AddBlock(i, j int, blk []float64) {
	if i < 0 || i >= bb.nbRows || j < 0 || j >= bb.nbCols {
		panic(fmt.Sprintf("sparse: AddBlock index (%d,%d) out of range %dx%d", i, j, bb.nbRows, bb.nbCols))
	}
	if len(blk) != bb.b*bb.b {
		panic(fmt.Sprintf("sparse: AddBlock got %d values, want %d", len(blk), bb.b*bb.b))
	}
	if bb.rows[i] == nil {
		bb.rows[i] = make(map[int][]float64, 8)
	}
	dst := bb.rows[i][j]
	if dst == nil {
		dst = make([]float64, bb.b*bb.b)
		bb.rows[i][j] = dst
	}
	for t, v := range blk {
		dst[t] += v
	}
}

// Build converts the accumulated blocks to BSR with sorted block columns.
func (bb *BlockBuilder) Build() *BSR {
	bsq := bb.b * bb.b
	rowPtr := make([]int, bb.nbRows+1)
	nnzb := 0
	for i, r := range bb.rows {
		rowPtr[i] = nnzb
		nnzb += len(r)
	}
	rowPtr[bb.nbRows] = nnzb
	colIdx := make([]int, nnzb)
	val := make([]float64, nnzb*bsq)
	for i, r := range bb.rows {
		start := rowPtr[i]
		k := start
		for j := range r {
			colIdx[k] = j
			k++
		}
		cols := colIdx[start:k]
		sort.Ints(cols)
		for kk, j := range cols {
			copy(val[(start+kk)*bsq:(start+kk+1)*bsq], r[j])
		}
	}
	out := &BSR{NBRows: bb.nbRows, NBCols: bb.nbCols, B: bb.b, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if check.Enabled {
		check.CSRWellFormed(out.NBRows, out.NBCols, out.RowPtr, out.ColIdx, len(out.ColIdx), "sparse.BlockBuilder.Build")
	}
	return out
}

// NodeWeights recognizes the node-conforming structure of a geometric
// restriction matrix: every block row consists of b scalar rows that are
// component-shifted copies of each other — R[b*i+d, b*j+d] = w for all d,
// nothing off the component diagonal. It returns the node-level weight
// matrix (one scalar per coarse/fine node pair) and true, or nil and false
// when any row deviates (smoothed-aggregation restrictions mix components
// and land here). Value comparison is bitwise: the structure is exact by
// construction, never approximate.
func NodeWeights(r *CSR, b int) (*CSR, bool) {
	if b <= 1 || r.NRows%b != 0 || r.NCols%b != 0 {
		return nil, false
	}
	nbr, nbc := r.NRows/b, r.NCols/b
	rowPtr := make([]int, nbr+1)
	colIdx := make([]int, 0, r.NNZ()/b)
	val := make([]float64, 0, r.NNZ()/b)
	for ib := 0; ib < nbr; ib++ {
		cols0, vals0 := r.Row(ib * b)
		for _, j := range cols0 {
			if j%b != 0 {
				return nil, false
			}
		}
		for d := 1; d < b; d++ {
			cols, vals := r.Row(ib*b + d)
			if len(cols) != len(cols0) {
				return nil, false
			}
			for k := range cols {
				if cols[k] != cols0[k]+d ||
					math.Float64bits(vals[k]) != math.Float64bits(vals0[k]) {
					return nil, false
				}
			}
		}
		for k, j := range cols0 {
			colIdx = append(colIdx, j/b)
			val = append(val, vals0[k])
		}
		rowPtr[ib+1] = len(colIdx)
	}
	return &CSR{NRows: nbr, NCols: nbc, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, true
}

// ExpandBlocks is the inverse of NodeWeights: it replicates each node
// weight w at (i,j) into b component-diagonal scalar entries
// (b*i+d, b*j+d). The expansion is bitwise identical to assembling the
// scalar restriction directly, which keeps the coarsening pipeline
// deterministic across the storage refactor.
func ExpandBlocks(rn *CSR, b int) *CSR {
	nnz := rn.NNZ()
	rowPtr := make([]int, rn.NRows*b+1)
	colIdx := make([]int, nnz*b)
	val := make([]float64, nnz*b)
	n := 0
	for i := 0; i < rn.NRows; i++ {
		cols, vals := rn.Row(i)
		for d := 0; d < b; d++ {
			for k, j := range cols {
				colIdx[n] = b*j + d
				val[n] = vals[k]
				n++
			}
			rowPtr[b*i+d+1] = n
		}
	}
	out := &CSR{NRows: rn.NRows * b, NCols: rn.NCols * b, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if check.Enabled {
		check.CSRWellFormed(out.NRows, out.NCols, out.RowPtr, out.ColIdx, len(out.Val), "sparse.ExpandBlocks")
	}
	return out
}
