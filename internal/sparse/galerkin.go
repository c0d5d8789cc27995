package sparse

import (
	"prometheus/internal/check"
	"prometheus/internal/pool"
)

// GalerkinPlan is the symbolic half of the coarse-grid operator R·A·Rᵀ for
// one restriction R and one pattern of A: the patterns of R·A and R·A·Rᵀ,
// and the storage the coarse operator is written into. Its numeric half —
// RA, Diag, Fill — computes the coarse operator for an A with the planned
// pattern, so a hierarchy rebuilt for new values of one pattern (a Newton
// tangent) pays for the arithmetic only.
//
// The plan takes the path GalerkinBSR takes. A BSR A under a restriction
// with the node-conforming w·I structure of the geometric coarsener stays
// blocked: both products run over node-level weights and the result is
// BSR. A BSR A under any other restriction (smoothed aggregation) is
// expanded to scalar rows, multiplied in scalar form and re-blocked when
// that stores no entry the scalar product does not: a coarse operator with
// block fill would have another pattern than the scalar chain's, and so
// another smoother partition and coarse ordering. A CSR A is multiplied in
// scalar form.
type GalerkinPlan struct {
	// r and rt are the left and right factors of the product: R and Rᵀ,
	// or R's node weights and their transpose on the blocked path.
	r, rt   *CSR
	ra, rar *Product
	// expand is A's scalar pattern when a BSR A is expanded.
	expand *CSR
	// to is the pattern Fill returns the coarse operator in: Pattern()
	// until Target pins it. The scalar paths write the product into
	// scalar — to itself, or the raw product that Fill scatters into to,
	// the expanded path's re-blocked layout.
	to     Operator
	scalar *CSR
}

// PlanGalerkin plans R·A·Rᵀ for the pattern of a (its values are not
// read); rt must be Rᵀ.
func PlanGalerkin(r, rt *CSR, a Operator) *GalerkinPlan {
	if r.NCols != a.Rows() || rt.NRows != r.NCols || rt.NCols != r.NRows {
		panic("sparse: PlanGalerkin dimension mismatch")
	}
	if m, ok := a.(*BSR); ok {
		if rn, ok := NodeWeights(r, m.B); ok {
			rnt := rn.Transpose()
			ra := planProduct(rn.NRows, m.NBCols, leftOf(rn), rightOf(m), m.B, false, true)
			rar := planProduct(ra.NRows, rnt.NCols, ra.left(), rightOf(rnt), m.B, true, false)
			rar.planDiag()
			return &GalerkinPlan{r: rn, rt: rnt, ra: ra, rar: rar, to: rar.bsr(nil)}
		}
		expand := m.ScalarPattern()
		g := planScalarGalerkin(r, rt, expand)
		g.expand = expand
		if t := PlanBlock(g.scalar, m.B); t != nil && t.NNZ() == g.scalar.NNZ() {
			g.to = t
		}
		return g
	}
	return planScalarGalerkin(r, rt, a)
}

// planScalarGalerkin plans the scalar products, leaving the raw pattern of
// R·A·Rᵀ as the target alone.
func planScalarGalerkin(r, rt *CSR, a Operator) *GalerkinPlan {
	ra := planProduct(r.NRows, a.Cols(), leftOf(r), rightOf(a), 1, false, true)
	rar := planProduct(ra.NRows, rt.NCols, ra.left(), rightOf(rt), 1, false, false)
	rar.planDiag()
	g := &GalerkinPlan{r: r, rt: rt, ra: ra, rar: rar, scalar: rar.csr(nil)}
	g.to = g.scalar
	// The scalar fill writes through the target's pattern: the product's
	// own reference to the columns would keep them alive after a Target.
	rar.ColIdx = nil
	return g
}

// Pattern returns the pattern of R·A·Rᵀ as the plan stores it before a
// Target: CSR on the scalar path, BSR on the blocked one and on a scalar
// path re-blocked. It has no values.
func (g *GalerkinPlan) Pattern() Operator {
	return g.to
}

// Target makes t the pattern Fill writes into: one planned from the
// scalar form of Pattern(), its rows and columns pinned as multigrid
// pins them. Every entry the product forms outside a pinned row or column
// must belong to it.
func (g *GalerkinPlan) Target(t *CSR) {
	g.to, g.scalar = t, t
}

// PatternBytes returns the bytes of the index arrays the plan holds beyond
// its target and the restriction: the pattern of R·A, the left factor's
// columns as 32-bit indices, where R·A·Rᵀ's diagonal comes from, on the
// blocked path R's node weights, and on a re-blocked path the raw
// product's pattern.
func (g *GalerkinPlan) PatternBytes() int64 {
	n := 8*int64(len(g.ra.RowPtr)+len(g.ra.start)+len(g.rar.diagPtr)) + 4*int64(len(g.ra.idx32)+len(g.ra.a.idx)+len(g.rar.diagA)+len(g.rar.diagB))
	if g.rar.bs > 1 {
		n += StorageBytes(g.r) + StorageBytes(g.rt)
	}
	if g.scalar != nil && g.to != Operator(g.scalar) {
		n += StorageBytes(g.scalar)
	}
	return n
}

// RA returns the values of R·A for an A with the planned pattern and
// storage: the first product, which Diag and Fill go on from.
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
	return g.ra.fillKernel(g.r.Val, av, ra, target{}), ra
}

// Diag returns the diagonal of R·A·Rᵀ from R·A's values, every entry the
// sum Fill forms for it — zero where the product stores none — without
// forming the product: what multigrid reads to decide the pins before
// Fill writes the product pinned.
func (g *GalerkinPlan) Diag(ra []float64) []float64 {
	return g.rar.diag(ra, g.rt.Val)
}

// rarKernel returns the numeric pass of R·A·Rᵀ from R·A's values under
// the pins keep, and the array it writes: the raw product on the blocked
// path, the scalar target's values otherwise, whose pinned rows it skips
// and whose pinned columns it sends to one slot per lane past the values.
func (g *GalerkinPlan) rarKernel(ra []float64, keep []int) (*fillKernel, []float64) {
	if g.rar.bs > 1 {
		val := make([]float64, g.rar.ValLen())
		return g.rar.fillKernel(ra, g.rt.Val, val, target{}), val
	}
	t := target{csr: g.scalar, keep: keep, trash: len(g.scalar.ColIdx)}
	val := make([]float64, t.trash+pool.Lanes)
	return g.rar.fillKernel(ra, g.rt.Val, val, t), val[:t.trash:t.trash]
}

// FillKernels returns the two numeric passes of Fill(RA(a), keep, ·) as
// the item kernels they dispatch (item = row of the product), each with
// the values it writes, for TestKernelContract. The second reads R·A's
// values, computed here first.
func (g *GalerkinPlan) FillKernels(a Operator, keep []int) (ra pool.ItemKernel, raVal []float64, rar pool.ItemKernel, rarVal []float64) {
	rk, rv := g.raKernel(a)
	ak, av := g.rarKernel(g.RA(a), keep)
	return rk, rv, ak, av
}

// Products returns the plan's two products, R·A and R·A·Rᵀ — over node
// blocks on the blocked path — for TestKernelContract.
func (g *GalerkinPlan) Products() (ra, rar *Product) {
	return g.ra, g.rar
}

// Fill returns R·A·Rᵀ, from R·A's values, in the target's storage: CSR or
// BSR. keep and pin are multigrid's pins (keep nil: none) and must be
// the ones the target was planned for: a pinned row holds pin on its
// diagonal and nothing else, a pinned column nothing. Every other entry is
// the sum the one-pass product formed, in the same order, so the result is
// bitwise that of Galerkin or GalerkinBSR pinned by Select.
func (g *GalerkinPlan) Fill(ra []float64, keep []int, pin float64) Operator {
	k, val := g.rarKernel(ra, keep)
	g.rar.run(k)
	if g.rar.bs > 1 {
		raw := g.rar.bsr(val)
		if to, ok := g.to.(*CSR); ok {
			return to.FillSelect(raw.ToCSR(), keep, keep, pin)
		}
		return raw
	}
	c := g.scalar
	for i, kept := range keep {
		if kept < 0 {
			val[c.RowPtr[i]] = pin
		}
	}
	c = &CSR{NRows: c.NRows, NCols: c.NCols, RowPtr: c.RowPtr, ColIdx: c.ColIdx, Val: val}
	if t, ok := g.to.(*BSR); ok {
		return t.FillFromCSR(c)
	}
	return c
}

// opSymmetric is IsSymmetric for either assembled storage.
func opSymmetric(a Operator, tol float64) bool {
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
func galerkin(r *CSR, a Operator) Operator {
	g := PlanGalerkin(r, r.Transpose(), a)
	out := g.Fill(g.RA(a), nil, 0)
	if check.Enabled && opSymmetric(a, 1e-10) {
		// The triple product must preserve symmetry of the fine operator.
		check.Assert(opSymmetric(out, 1e-8), "sparse.Galerkin: coarse operator lost symmetry")
	}
	return out
}

// Galerkin returns the coarse-grid operator R·A·Rᵀ (the paper's
// Acoarse = R·Afine·Rᵀ). R is nc×nf, A is nf×nf; the result is nc×nc. It
// is a one-shot PlanGalerkin and fill.
func Galerkin(r, a *CSR) *CSR {
	return galerkin(r, a).(*CSR)
}

// GalerkinBSR builds the coarse-grid operator R·A·Rᵀ, staying in blocked
// storage when it can (see GalerkinPlan): a one-shot PlanGalerkin and
// fill.
func GalerkinBSR(r *CSR, a Operator) Operator {
	if _, ok := a.(*BSR); !ok {
		a = AsCSR(a)
	}
	return galerkin(r, a)
}
