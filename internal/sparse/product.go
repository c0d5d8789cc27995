package sparse

import (
	"math"
	"math/bits"
	"slices"

	"prometheus/internal/check"
	"prometheus/internal/pool"
)

// Product is the symbolic half of a sparse product C = A·B: the pattern of
// C, found once from the patterns of A and B, together with the operand
// patterns it was found from. Its numeric pass computes C's values for
// operands with those patterns and does nothing else, so a product whose
// operands change only in value pays for its arithmetic. One operand may
// be blocked: the blocks of a BSR operand are scaled by the scalar entries
// of the other, which is the node-weight form of the Galerkin product
// (GalerkinBSR).
//
// Both halves are row-parallel on the shared worker set (pool.RunItems,
// item = row of C). The numeric pass sums every entry of C in the order of
// the one-pass Gustavson merge it replaces — A's row left to right, each B
// row it reaches left to right, starting from zero — so a row has the same
// bits whoever computes it, and wherever it is stored (a block layout).
type Product struct {
	// NRows, NCols and RowPtr are C's pattern (its block pattern when an
	// operand is blocked): row i's values sit at [RowPtr[i], RowPtr[i+1])
	// of a value array and its columns, sorted, at the same positions of
	// ColIdx. An intermediate product, one only ever used as the left
	// operand of another (R·A inside R·A·Rᵀ), keeps its columns as 32-bit
	// idx32 from start[i] instead, where equal consecutive rows — the
	// components of one node — share one copy; ColIdx is nil. It is the
	// largest pattern a Galerkin plan holds.
	NRows, NCols int
	RowPtr       []int
	ColIdx       []int
	start        []int
	idx32        []int32

	a left
	b right
	// bs is the block size of the blocked operand, 1 when both are
	// scalar; aBlocked says which operand it is.
	bs       int
	aBlocked bool
	// visits is the number of (A entry, B entry) pairs one pass reads.
	visits int
}

// left is the pattern of a product's left operand: row i's values at
// [ptr[i], ptr[i+1]) of its value array, its columns the same number of
// entries of idx from start[i].
type left struct {
	ptr, start []int
	idx        []int32
}

// row returns the columns of row i.
func (l left) row(i int) []int32 {
	return l.idx[l.start[i]:][:l.ptr[i+1]-l.ptr[i]]
}

// right is the pattern of a product's right operand: a CSR's, or a BSR's
// block pattern.
type right struct {
	ptr, idx []int
}

// leftOf returns a's pattern as a left operand.
func leftOf(a *CSR) left {
	return left{ptr: a.RowPtr, start: a.RowPtr, idx: narrow(a.ColIdx)}
}

// rightOf returns a's pattern as a right operand (a BSR's block pattern).
func rightOf(a Operator) right {
	switch m := a.(type) {
	case *CSR:
		return right{ptr: m.RowPtr, idx: m.ColIdx}
	case *BSR:
		return right{ptr: m.RowPtr, idx: m.ColIdx}
	default:
		panic("sparse: a product needs assembled operands")
	}
}

// left returns the pattern of intermediate product p as a left operand.
func (p *Product) left() left {
	return left{ptr: p.RowPtr, start: p.start, idx: p.idx32}
}

// PlanProduct finds the pattern of a·b for two scalar matrices.
func PlanProduct(a, b *CSR) *Product {
	if a.NCols != b.NRows {
		panic("sparse: PlanProduct dimension mismatch")
	}
	return planProduct(a.NRows, b.NCols, leftOf(a), rightOf(b), 1, false, false)
}

// widen returns idx as ints.
func widen(idx []int32) []int {
	out := make([]int, len(idx))
	for k, j := range idx {
		out[k] = int(j)
	}
	return out
}

// narrow returns idx as 32-bit indices.
func narrow(idx []int) []int32 {
	out := make([]int32, len(idx))
	for k, j := range idx {
		out[k] = int32(j)
	}
	return out
}

// planProduct runs the symbolic pass: each row's distinct columns are
// collected, sorted and counted into the store of the participant that
// ran the row, and copied into C's pattern once the counts are summed.
func planProduct(nRows, nCols int, a left, b right, bs int, aBlocked, intermediate bool) *Product {
	if nCols > math.MaxInt32 {
		panic("sparse: planProduct: more columns than 32-bit indices reach")
	}
	p := &Product{
		NRows: nRows, NCols: nCols, RowPtr: make([]int, nRows+1),
		a: a, b: b, bs: bs, aBlocked: aBlocked,
	}
	for i := 0; i < nRows; i++ {
		for _, j := range a.row(i) {
			p.visits += b.rowLen(int(j))
		}
	}
	k := p.SymbolicKernel()
	pool.RunItems(k, nRows, 1, p.visits)
	for i := 0; i < nRows; i++ {
		p.RowPtr[i+1] = p.RowPtr[i] + int(k.count[i])
	}
	if intermediate {
		p.start = make([]int, nRows)
		n := 0
		for i := 0; i < nRows; i++ {
			if i > 0 && slices.Equal(k.row(i), k.row(i-1)) {
				p.start[i] = p.start[i-1]
				continue
			}
			p.start[i] = n
			n += len(k.row(i))
		}
		p.idx32 = make([]int32, n)
		for i := 0; i < nRows; i++ {
			copy(p.idx32[p.start[i]:], k.row(i))
		}
	} else {
		p.ColIdx = make([]int, p.RowPtr[nRows])
		for i := 0; i < nRows; i++ {
			for t, c := range k.row(i) {
				p.ColIdx[p.RowPtr[i]+t] = int(c)
			}
		}
	}
	if check.Enabled {
		cols := p.ColIdx
		if intermediate {
			cols = cols[:0]
			for i := 0; i < nRows; i++ {
				cols = append(cols, widen(p.left().row(i))...)
			}
		}
		check.CSRWellFormed(nRows, nCols, p.RowPtr, cols, len(cols), "sparse.planProduct")
	}
	return p
}

// rowLen returns the number of entries of row j.
func (b right) rowLen(j int) int { return b.ptr[j+1] - b.ptr[j] }

// NNZ returns the number of stored entries of C (scalars, or blocks when
// an operand is blocked).
func (p *Product) NNZ() int { return p.RowPtr[p.NRows] }

// ValLen returns the length of C's value array.
func (p *Product) ValLen() int { return p.NNZ() * p.bs * p.bs }

// SymbolicKernel is planProduct's pass as a pool.ItemKernel over the rows
// of C: it collects and sorts the columns of each row it runs into the
// store of the lane that ran it, where Row finds them. It writes nothing
// of the Product.
type SymbolicKernel struct {
	p     *Product
	lanes [pool.Lanes]*symbolicLane
	// Row i's columns are lanes[lane[i]].segs[seg[i]][start[i]:][:count[i]];
	// count[i] is -1 until the row has run.
	lane, seg, start, count []int32
}

// symbolicLane is one participant's scratch: seen has bit c set while
// column c is in the row being collected, row holds that row, and segs
// store the sorted rows the lane ran, appended to the last segment and a
// new one begun when it is full, so the store never grows by copying.
type symbolicLane struct {
	seen []uint64
	row  []int
	segs [][]int32
}

// segLen is the length of a lane's column segment.
const segLen = 1 << 16

// SymbolicKernel returns a new kernel of p's symbolic pass, for the
// operands p was planned from.
func (p *Product) SymbolicKernel() *SymbolicKernel {
	k := &SymbolicKernel{p: p}
	ix := make([]int32, 4*p.NRows)
	k.lane, k.seg, k.start, k.count = ix[:p.NRows], ix[p.NRows:2*p.NRows], ix[2*p.NRows:3*p.NRows], ix[3*p.NRows:]
	for i := range k.count {
		k.count[i] = -1
	}
	return k
}

// Items implements pool.ItemKernel.
func (k *SymbolicKernel) Items(w, lo, hi int) {
	p := k.p
	ln := k.lanes[w]
	if ln == nil {
		ln = &symbolicLane{seen: make([]uint64, (p.NCols+63)/64)}
		k.lanes[w] = ln
	}
	for i := lo; i < hi; i++ {
		row := p.symbolicRow(i, ln.seen, ln.row[:0])
		sortColumns(row, ln.seen)
		last := len(ln.segs) - 1
		if last < 0 || len(ln.segs[last])+len(row) > cap(ln.segs[last]) {
			ln.segs = append(ln.segs, make([]int32, 0, max(segLen, len(row))))
			last++
		}
		seg := ln.segs[last]
		k.lane[i], k.seg[i], k.start[i], k.count[i] = int32(w), int32(last), int32(len(seg)), int32(len(row))
		for _, c := range row {
			seg = append(seg, int32(c))
		}
		ln.segs[last], ln.row = seg, row
	}
}

// symbolicRow appends the distinct columns row i of C reaches to row,
// setting their bits in seen.
func (p *Product) symbolicRow(i int, seen []uint64, row []int) []int {
	for _, j := range p.a.row(i) {
		for _, c := range p.b.idx[p.b.ptr[j]:p.b.ptr[j+1]] {
			if bit := uint64(1) << (c & 63); seen[c>>6]&bit == 0 {
				seen[c>>6] |= bit
				row = append(row, c)
			}
		}
	}
	return row
}

// Row returns the sorted columns of row i, and whether Items has run it.
func (k *SymbolicKernel) Row(i int) ([]int32, bool) {
	if k.count[i] < 0 {
		return nil, false
	}
	return k.row(i), true
}

// row returns the columns of row i, which Items has run.
func (k *SymbolicKernel) row(i int) []int32 {
	return k.lanes[k.lane[i]].segs[k.seg[i]][k.start[i]:][:k.count[i]]
}

// sortColumns sorts row, whose columns are the bits set in seen, and
// clears seen: a short row by insertion, a longer one by reading the bits
// back in order between its least and greatest column.
func sortColumns(row []int, seen []uint64) {
	if len(row) <= 32 {
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j] < row[j-1]; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
		for _, c := range row {
			seen[c>>6] = 0
		}
		return
	}
	lo, hi := row[0], row[0]
	for _, c := range row {
		lo, hi = min(lo, c), max(hi, c)
	}
	n := 0
	for w := lo >> 6; w <= hi>>6; w++ {
		for x := seen[w]; x != 0; x &= x - 1 {
			row[n] = w<<6 | bits.TrailingZeros64(x)
			n++
		}
		seen[w] = 0
	}
}

// Fill computes C's values into c (length ValLen) from the values of A
// and B, whose patterns must be the ones p was planned from.
func (p *Product) Fill(aVal, bVal, c []float64) {
	p.run(p.fillKernel(aVal, bVal, c, nil))
}

// run runs a numeric pass of p on the shared set.
func (p *Product) run(k *fillKernel) {
	pool.RunItems(k, p.NRows, 1, p.visits*p.bs*p.bs)
}

// FillKernel returns Fill's numeric pass as the item kernel it dispatches
// (item = row of C: its stretch of c), for TestKernelContract.
func (p *Product) FillKernel(aVal, bVal, c []float64) pool.ItemKernel {
	return p.fillKernel(aVal, bVal, c, nil)
}

func (p *Product) fillKernel(aVal, bVal, c []float64, into *BSR) *fillKernel {
	return &fillKernel{p: p, a: aVal, b: bVal, c: c, into: into}
}

// fillKernel is the numeric pass. It writes C in its own pattern or, for
// a scalar C, into the block layout into, whose blocks hold every entry of
// C: scalar row i is row i%B of block row i/B, and the rows of one block
// row write disjoint stretches of its blocks. pos, per lane, maps a column
// of the row being filled to its position in c.
type fillKernel struct {
	p       *Product
	a, b, c []float64
	into    *BSR
	pos     [pool.Lanes][]int
}

// Items implements pool.ItemKernel.
func (k *fillKernel) Items(w, lo, hi int) {
	p := k.p
	pos := k.pos[w]
	if pos == nil {
		pos = make([]int, p.NCols)
		k.pos[w] = pos
	}
	bb := p.bs * p.bs
	for i := lo; i < hi; i++ {
		switch t := k.into; {
		case t != nil:
			b := t.B
			for q := t.RowPtr[i/b]; q < t.RowPtr[i/b+1]; q++ {
				d := (q*b + i%b) * b
				for f := range b {
					pos[t.ColIdx[q]*b+f] = d + f
				}
				clear(k.c[d : d+b])
			}
		default:
			q0, q1 := p.RowPtr[i], p.RowPtr[i+1]
			if p.ColIdx != nil {
				for n, col := range p.ColIdx[q0:q1] {
					pos[col] = q0 + n
				}
			} else {
				for n, col := range p.left().row(i) {
					pos[col] = q0 + n
				}
			}
			clear(k.c[q0*bb : q1*bb])
		}
		switch {
		case bb > 1 && p.aBlocked:
			k.blockedARow(pos, i, bb)
		case bb > 1:
			k.blockedBRow(pos, i, bb)
		default:
			k.scalarRow(pos, i)
		}
	}
}

// scalarRow accumulates row i of a scalar product.
func (k *fillKernel) scalarRow(pos []int, i int) {
	p, c := k.p, k.c
	lo := p.a.ptr[i]
	for ka, j := range p.a.row(i) {
		av := k.a[lo+ka]
		blo, bhi := p.b.ptr[j], p.b.ptr[j+1]
		cols := p.b.idx[blo:bhi]
		vals := k.b[blo:bhi:bhi]
		vals = vals[:len(cols)]
		for kb, col := range cols {
			c[pos[col]] += av * vals[kb]
		}
	}
}

// blockedBRow accumulates row i of S·A: scalar weights times blocks.
func (k *fillKernel) blockedBRow(pos []int, i, bb int) {
	p, c := k.p, k.c
	lo := p.a.ptr[i]
	for ka, j := range p.a.row(i) {
		sv := k.a[lo+ka]
		for kb := p.b.ptr[j]; kb < p.b.ptr[j+1]; kb++ {
			d := pos[p.b.idx[kb]] * bb
			dst := c[d : d+bb : d+bb]
			src := k.b[kb*bb : kb*bb+bb : kb*bb+bb]
			src = src[:len(dst)]
			for t, v := range src {
				dst[t] += sv * v
			}
		}
	}
}

// blockedARow accumulates row i of A·S: blocks times scalar weights.
func (k *fillKernel) blockedARow(pos []int, i, bb int) {
	p, c := k.p, k.c
	lo := p.a.ptr[i]
	for n, j := range p.a.row(i) {
		ka := lo + n
		src := k.a[ka*bb : ka*bb+bb : ka*bb+bb]
		for kb := p.b.ptr[j]; kb < p.b.ptr[j+1]; kb++ {
			sv := k.b[kb]
			d := pos[p.b.idx[kb]] * bb
			dst := c[d : d+bb : d+bb]
			dst = dst[:len(src)]
			for t, v := range src {
				dst[t] += v * sv
			}
		}
	}
}

// planDiagonal adds a diagonal entry to every row of square C that lacks
// one: a slot no term reaches, which the numeric pass leaves zero.
func (p *Product) planDiagonal() {
	missing := 0
	for i := 0; i < p.NRows; i++ {
		if _, ok := diagonalAt(p.ColIdx[p.RowPtr[i]:p.RowPtr[i+1]], i); !ok {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	ptr, idx := make([]int, p.NRows+1), make([]int, 0, len(p.ColIdx)+missing)
	for i := 0; i < p.NRows; i++ {
		row := p.ColIdx[p.RowPtr[i]:p.RowPtr[i+1]]
		n, ok := diagonalAt(row, i)
		idx = append(idx, row[:n]...)
		if !ok {
			idx = append(idx, i)
		}
		idx = append(idx, row[n:]...)
		ptr[i+1] = len(idx)
	}
	p.RowPtr, p.ColIdx = ptr, idx
}

// diagonalAt returns where column i is, or would be, in the sorted row,
// and whether it is there.
func diagonalAt(row []int, i int) (int, bool) {
	n := 0
	for n < len(row) && row[n] < i {
		n++
	}
	return n, n < len(row) && row[n] == i
}

// csr returns C as a CSR holding val.
func (p *Product) csr(val []float64) *CSR {
	return &CSR{NRows: p.NRows, NCols: p.NCols, RowPtr: p.RowPtr, ColIdx: p.ColIdx, Val: val}
}

// bsr returns C as a BSR holding val.
func (p *Product) bsr(val []float64) *BSR {
	return &BSR{NBRows: p.NRows, NBCols: p.NCols, B: p.bs, RowPtr: p.RowPtr, ColIdx: p.ColIdx, Val: val}
}
