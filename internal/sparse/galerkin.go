package sparse

import (
	"prometheus/internal/check"
	"prometheus/internal/pool"
)

// GalerkinPlan is the symbolic half of the coarse-grid operator R·A·Rᵀ for
// one restriction R and one pattern of A: the patterns of R·A and R·A·Rᵀ,
// and the layout the coarse operator is written in. Its numeric half — RA,
// Fill — computes the coarse operator for an A with the planned pattern,
// so a hierarchy rebuilt for new values of one pattern (a Newton tangent)
// pays for the arithmetic only.
//
// A BSR A under a restriction with the node-conforming w·I structure of
// the geometric coarsener stays blocked: both products run over node-level
// weights and the result is BSR. Any other product is formed in scalar
// rows — a BSR A under another restriction (smoothed aggregation) expanded
// first — and written straight into the b×b block layout PlanBlock gives
// its pattern, fill stored as zeros, when the plan was asked for blocks
// and the pattern blocks; otherwise it is CSR in its own pattern. A
// layout planned for blocks, and a blocked product, store every diagonal
// entry, a zero where the product forms none, for multigrid to pin in
// place.
type GalerkinPlan struct {
	// r and rt are the left and right factors of the product: R and Rᵀ,
	// or R's node weights and their transpose on the blocked path.
	r, rt   *CSR
	ra, rar *Product
	// expand is A's scalar pattern when a BSR A is expanded.
	expand *CSR
	// to is the pattern Fill returns the coarse operator in: rar's own, or
	// the block layout a scalar rar is written into.
	to Operator
}

// PlanGalerkin plans R·A·Rᵀ for the pattern of a (its values are not
// read); rt must be Rᵀ. A product formed in scalar rows is laid out in
// b×b blocks where its pattern blocks; b = 1 keeps it CSR, in the pattern
// of the one-pass product.
func PlanGalerkin(r, rt *CSR, a Operator, b int) *GalerkinPlan {
	if r.NCols != a.Rows() || rt.NRows != r.NCols || rt.NCols != r.NRows {
		panic("sparse: PlanGalerkin dimension mismatch")
	}
	if m, ok := a.(*BSR); ok {
		if rn, ok := NodeWeights(r, m.B); ok {
			rnt := rn.Transpose()
			ra := planProduct(rn.NRows, m.NBCols, leftOf(rn), rightOf(m), m.B, false, true)
			rar := planProduct(ra.NRows, rnt.NCols, ra.left(), rightOf(rnt), m.B, true, false)
			rar.planDiagonal()
			return &GalerkinPlan{r: rn, rt: rnt, ra: ra, rar: rar, to: rar.bsr(nil)}
		}
		expand := m.ScalarPattern()
		g := planScalarGalerkin(r, rt, expand, b)
		g.expand = expand
		return g
	}
	return planScalarGalerkin(r, rt, a, b)
}

// planScalarGalerkin plans the scalar products and their layout.
func planScalarGalerkin(r, rt *CSR, a Operator, b int) *GalerkinPlan {
	ra := planProduct(r.NRows, a.Cols(), leftOf(r), rightOf(a), 1, false, true)
	rar := planProduct(ra.NRows, rt.NCols, ra.left(), rightOf(rt), 1, false, false)
	g := &GalerkinPlan{r: r, rt: rt, ra: ra, rar: rar}
	if b > 1 {
		rar.planDiagonal()
		if t := PlanBlock(rar.csr(nil), b); t != nil {
			// The fill writes through the layout's pattern: the product's own
			// columns would be a second copy kept alive.
			g.to, rar.ColIdx = t, nil
			return g
		}
	}
	g.to = rar.csr(nil)
	return g
}

// PatternBytes returns the bytes of the index arrays the plan holds beyond
// the coarse operator's pattern and the restriction: the pattern of R·A,
// the left factor's columns as 32-bit indices, an expanded A's scalar
// pattern, on the blocked path R's node weights, and on a path laid out
// in blocks the scalar product's row pointers.
func (g *GalerkinPlan) PatternBytes() int64 {
	n := 8*int64(len(g.ra.RowPtr)+len(g.ra.start)) + 4*int64(len(g.ra.idx32)+len(g.ra.a.idx))
	if g.expand != nil {
		n += StorageBytes(g.expand)
	}
	if g.rar.bs > 1 {
		n += StorageBytes(g.r) + StorageBytes(g.rt)
	}
	if g.rar.ColIdx == nil {
		n += 8 * int64(len(g.rar.RowPtr))
	}
	return n
}

// RA returns the values of R·A for an A with the planned pattern and
// storage: the first product, which Fill goes on from.
func (g *GalerkinPlan) RA(a Operator) []float64 {
	k, ra := g.raKernel(a)
	g.ra.run(k)
	return ra
}

// raKernel returns the numeric pass of R·A for a and the array it writes.
func (g *GalerkinPlan) raKernel(a Operator) (*fillKernel, []float64) {
	av := Values(a)
	if g.expand != nil {
		av = g.expand.FillFromBSR(a.(*BSR)).Val
	}
	ra := make([]float64, g.ra.ValLen())
	return g.ra.fillKernel(g.r.Val, av, ra, nil), ra
}

// rarKernel returns the numeric pass of R·A·Rᵀ from R·A's values and the
// array it writes, laid out as the plan's pattern.
func (g *GalerkinPlan) rarKernel(ra []float64) (*fillKernel, []float64) {
	var into *BSR
	if t, ok := g.to.(*BSR); ok && g.rar.bs == 1 {
		into = t
	}
	val := make([]float64, g.to.NNZ())
	return g.rar.fillKernel(ra, g.rt.Val, val, into), val
}

// FillKernels returns the two numeric passes of Fill(RA(a)) as the item
// kernels they dispatch (item = row of the product), each with the values
// it writes, for TestKernelContract. The second reads R·A's values,
// computed here first.
func (g *GalerkinPlan) FillKernels(a Operator) (ra pool.ItemKernel, raVal []float64, rar pool.ItemKernel, rarVal []float64) {
	rk, rv := g.raKernel(a)
	ak, av := g.rarKernel(g.RA(a))
	return rk, rv, ak, av
}

// Products returns the plan's two products, R·A and R·A·Rᵀ — over node
// blocks on the blocked path — for TestKernelContract.
func (g *GalerkinPlan) Products() (ra, rar *Product) {
	return g.ra, g.rar
}

// Fill returns R·A·Rᵀ, from R·A's values, in the plan's layout: CSR or
// BSR. Every entry the product forms is the sum the one-pass product
// forms, in the same order, wherever it is stored, and every other stored
// entry is zero.
func (g *GalerkinPlan) Fill(ra []float64) Operator {
	k, val := g.rarKernel(ra)
	g.rar.run(k)
	switch to := g.to.(type) {
	case *BSR:
		return &BSR{NBRows: to.NBRows, NBCols: to.NBCols, B: to.B, RowPtr: to.RowPtr, ColIdx: to.ColIdx, Val: val}
	default:
		return g.rar.csr(val)
	}
}

// Pin pins the dofs keep marks -1 in a, a CSR or BSR, in place: every
// stored entry in such a dof's row or column becomes zero, and its
// diagonal, which must be stored, becomes v: the values of
// Select(keep, keep, n, v), kept in a's own pattern.
func Pin(a Operator, keep []int, v float64) {
	b, ptr, idx, val := 1, []int(nil), []int(nil), Values(a)
	switch m := a.(type) {
	case *CSR:
		ptr, idx = m.RowPtr, m.ColIdx
	case *BSR:
		b, ptr, idx = m.B, m.RowPtr, m.ColIdx
	}
	bb, ib := b*b, 0
	for k, jb := range idx {
		for k >= ptr[ib+1] {
			ib++
		}
		blk := val[k*bb : k*bb+bb]
		for e := range blk {
			i, j := ib*b+e/b, jb*b+e%b
			switch {
			case keep[i] >= 0 && keep[j] >= 0:
			case i == j:
				blk[e] = v
			default:
				blk[e] = 0
			}
		}
	}
}

// OpSymmetric is IsSymmetric for either assembled storage; any other
// operator counts as symmetric.
func OpSymmetric(a Operator, tol float64) bool {
	switch m := a.(type) {
	case *CSR:
		return m.IsSymmetric(tol)
	case *BSR:
		return m.IsSymmetric(tol)
	default:
		return true
	}
}

// galerkin is the one-shot plan and fill behind Galerkin and GalerkinBSR.
func galerkin(r *CSR, a Operator, b int) Operator {
	g := PlanGalerkin(r, r.Transpose(), a, b)
	out := g.Fill(g.RA(a))
	if check.Enabled && OpSymmetric(a, 1e-10) {
		// The triple product must preserve symmetry of the fine operator.
		check.Assert(OpSymmetric(out, 1e-8), "sparse.Galerkin: coarse operator lost symmetry")
	}
	return out
}

// Galerkin returns the coarse-grid operator R·A·Rᵀ (the paper's
// Acoarse = R·Afine·Rᵀ). R is nc×nf, A is nf×nf; the result is nc×nc. It
// is a one-shot PlanGalerkin and fill.
func Galerkin(r, a *CSR) *CSR {
	return galerkin(r, a, 1).(*CSR)
}

// GalerkinBSR builds the coarse-grid operator R·A·Rᵀ, in a BSR A's block
// size where it can (see GalerkinPlan): a one-shot PlanGalerkin and fill.
func GalerkinBSR(r *CSR, a Operator) Operator {
	if m, ok := a.(*BSR); ok {
		return galerkin(r, m, m.B)
	}
	return galerkin(r, AsCSR(a), 1)
}
