package multigrid

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"prometheus/internal/check"
	"prometheus/internal/graph"
	"prometheus/internal/obs"
	"prometheus/internal/pool"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

// Plan is the symbolic half of a hierarchy build: everything Build does that
// does not depend on the values of the fine operator, only on its pattern
// and on the restriction chain. Per level it holds
//
//   - the prolongation P = Rᵀ and the Galerkin plan (the patterns of R·A
//     and R·A·Rᵀ, R's node weights on the blocked path, and the layout
//     the level is formed, pinned and applied in: blocks wherever its
//     pattern blocks, sparse.PlanBlock);
//   - the pin list pinList finds for the coarse operator;
//   - the block Jacobi's partition, block members and factor envelopes
//     (smooth.BlockPlan): the smoother's on every level above the
//     coarsest, and on the coarsest one block, whose factor is the
//     coarse grid's direct solve.
//
// A level is one matrix: the cycle applies it, its blocks are partitioned
// and factored from it and the next product reads it. Filling a plan
// writes values only: the Galerkin products, the pins and the block
// factorizations. A plan is read-only once made, so every MG filled from
// it shares its patterns and owns its values and scratch, and concurrent
// fills of one plan are independent.
//
// The pin list is the one thing about a level that depends on values: a
// coarse dof is pinned when its diagonal is zero or nearly so, which a
// restriction weight of 1e-15 gives as surely as a missing one. So a plan
// is made by the build that first needs it, level by level as the values
// reach each level, and records the pin lists that build found. Pins are
// written inside the level's pattern and change only values, but every
// later fill computes them again, and one that finds another list gives
// the plan up for a new one.
type Plan struct {
	opts Options
	rs   []*sparse.CSR
	// fine is the pattern of the operator the plan was made from: its
	// storage, dimensions and pattern are what a later fine operator must
	// repeat. When a CSR operator was blocked (planFine), fine is the
	// blocked pattern instead and expanded is set: a later operator is
	// that CSR's pattern, filled into blocks, or a blocked matrix with
	// fine's pattern, taken as level 0 as it is.
	fine     sparse.Operator
	expanded bool
	// scalar keeps every level in scalar rows: each level is planned in
	// the layout it is formed in, its smoother partitioned on that
	// layout's units, and then stored as the layout's scalar expansion,
	// fill and pinned couplings as zeros. It is the scalar-kernel
	// reference the tests pin the blocked hierarchy to, and only they set
	// it.
	scalar bool
	levels []*levelPlan
}

// levelPlan is one level of a Plan.
type levelPlan struct {
	R, P *sparse.CSR
	gal  *sparse.GalerkinPlan // nil on level 0
	// pins is pinList's list for this level (nil: no dof pinned).
	pins []int
	bj   *smooth.BlockPlan
}

// newPlan returns an empty plan for fine's pattern, these restrictions and
// these options; its first fill completes it.
func newPlan(fine sparse.Operator, rs []*sparse.CSR, opts Options) *Plan {
	return &Plan{opts: opts, rs: rs, fine: sparse.PatternOf(fine)}
}

// errPinsMoved is a fill's report that a level's pin list, computed from
// the values, is not the one the plan was made with.
var errPinsMoved = errors.New("multigrid: a level pins other dofs than its plan")

// fill builds the hierarchy for fine, planning every level the plan does
// not have yet. A plan that has all of them (one made for fine's pattern)
// is only read: the fill writes values. One that has none is completed
// level by level as the fill reaches each level, since a level's pin list
// is found from its values.
func (p *Plan) fill(fine sparse.Operator) (*MG, error) {
	planning := p.levels == nil
	if planning {
		sp := obs.Start(evPlan)
		p.planFine()
		sp.End()
	}
	mg := &MG{Opts: p.opts}
	a := fine
	if c, ok := fine.(*sparse.CSR); ok && p.expanded {
		a = p.fine.(*sparse.BSR).FillFromCSR(c)
	}
	for l := 0; l <= len(p.rs); l++ {
		if planning {
			p.levels = append(p.levels, &levelPlan{})
		}
		lp := p.levels[l]
		if l > 0 {
			var err error
			if a, err = p.galerkin(l, a, planning); err != nil {
				return nil, err
			}
			// Galerkin product cost estimate: ~2 flops per multiply-add over
			// the row-merge; use 4·nnz(A)·avg row of R as a proxy.
			mg.SetupFlops += 4 * int64(a.NNZ())
		}
		layout := a
		if p.scalar {
			a = sparse.AsCSR(a)
		}
		if planning {
			p.planLevel(l, layout)
		}
		lvl := newLevel(a)
		lvl.R, lvl.P = lp.R, lp.P
		mg.Levels = append(mg.Levels, lvl)
		sps := obs.Start(evSmoother)
		bj, err := mg.factor(a, lp.bj)
		sps.End()
		switch {
		case err != nil && l == len(p.rs):
			return nil, fmt.Errorf("multigrid: coarsest factorization: %w", err)
		case err != nil:
			return nil, fmt.Errorf("multigrid: block smoother: %w", err)
		case l == len(p.rs):
			lvl.Direct = bj
		default:
			lvl.Smoother = smooth.NewCGSmoother(a, bj)
		}
	}
	return mg, nil
}

// planFine plans the fine level's storage, the one storage decision a
// hierarchy makes from its operator alone: a CSR operator that blocks
// into node blocks with no fill is applied in blocks, and every other
// operator as handed in. No fill implies a dimension and an entry count
// divisible by the block's, which rejects most operators that do not
// block before their pattern is read.
func (p *Plan) planFine() {
	c, ok := p.fine.(*sparse.CSR)
	if !ok || c.NRows%nodeDofs != 0 || c.NNZ()%(nodeDofs*nodeDofs) != 0 {
		return
	}
	if t := sparse.PlanBlock(c, nodeDofs); t != nil && t.NNZ() == c.NNZ() {
		p.fine, p.expanded = t, true
	}
}

// galerkin forms level l's matrix from a, the matrix of the level above:
// the Galerkin product in the layout the level is applied in, with
// pinList's pins, found from its diagonal, written in place. planning says
// the plan does not have level l yet: the product's patterns are planned
// first, and the pin list is recorded. Otherwise a pin list other than the
// recorded one is errPinsMoved.
func (p *Plan) galerkin(l int, a sparse.Operator, planning bool) (sparse.Operator, error) {
	lp := p.levels[l]
	if planning {
		r := p.rs[l-1]
		if r.NCols != a.Rows() {
			return nil, fmt.Errorf("multigrid: restriction %dx%d does not match operator %d", r.NRows, r.NCols, a.Rows())
		}
		lp.planGalerkin(r, a)
	}
	spg := obs.Start(evGalerkin)
	c := lp.gal.Fill(lp.gal.RA(a))
	keep, maxd := pinList(c.Diag())
	spg.End()
	switch {
	case planning:
		lp.pins = keep
	case !slices.Equal(keep, lp.pins):
		return nil, errPinsMoved
	}
	if keep != nil {
		sparse.Pin(c, keep, maxd)
	}
	return c, nil
}

// planGalerkin plans the level's transfers and the patterns of its
// Galerkin product under restriction r from the level above's matrix a,
// laid out in node blocks wherever it blocks.
func (lp *levelPlan) planGalerkin(r *sparse.CSR, a sparse.Operator) {
	defer obs.Start(evPlan).End()
	lp.R, lp.P = r, r.Transpose()
	spg := obs.Start(evGalerkin)
	lp.gal = sparse.PlanGalerkin(r, lp.P, a, nodeDofs)
	spg.End()
}

// planLevel plans the block Jacobi of level l from layout, the storage its
// matrix was formed in (the matrix itself outside the scalar reference):
// its blocks and the envelopes their factors are stored in. Every level
// takes Options.BlockCount blocks but the coarsest, which takes one: a
// block Jacobi with one block is the direct solve the cycle ends in.
//
// The blocks partition the units of layout (unitGraph): the nodes of a
// blocked level, the dofs of a scalar one. A node's dofs therefore share a
// block, as the paper's block Jacobi (§7.2) partitions mesh vertices.
// Each block's units are then ordered by reverse Cuthill–McKee on the
// block's own subgraph (graph.PartOrder, block by block on the shared
// worker set), and smooth.PlanBlocks lays out the factors from the same
// graph: rows are the units' dofs in that order, which narrows the
// envelope the factor is stored and solved in.
func (p *Plan) planLevel(l int, layout sparse.Operator) {
	sp := obs.Start(evPlan)
	defer sp.End()
	g, b := unitGraph(layout)
	if check.Enabled {
		check.SymmetricPattern(g.N, g.Ptr, g.Adj, fmt.Sprintf("multigrid: level %d unit graph", l))
	}
	nb := 1
	if l < len(p.rs) {
		nb = p.opts.BlockCount(layout.Rows())
	}
	spp := obs.Start(evSmootherPartition)
	ord := graph.NewPartOrder(g, graph.GreedyPartition(g, nb), nb)
	pool.RunItems(ord, nb, 1, len(g.Adj))
	spp.End()
	p.levels[l].bj = smooth.PlanBlocks(g, b, ord.Parts())
}

// unitGraph returns the graph the smoother of a level stored as s is
// partitioned and planned on, and the dofs of each of its vertices: a
// BSR's block pattern, whose vertices are nodes, and a CSR's own pattern,
// whose vertices are dofs. For a structurally symmetric pattern a row's
// columns are its graph neighbours and the row itself, which the
// partitioner's search has assigned before it looks.
func unitGraph(s sparse.Operator) (*graph.Graph, int) {
	switch m := s.(type) {
	case *sparse.BSR:
		return &graph.Graph{N: m.NBRows, Ptr: m.RowPtr, Adj: m.ColIdx}, m.B
	case *sparse.CSR:
		return &graph.Graph{N: m.NRows, Ptr: m.RowPtr, Adj: m.ColIdx}, 1
	default:
		panic(fmt.Sprintf("multigrid: no unit graph for %T", s))
	}
}

// matches reports whether the plan was made for fine's storage and
// pattern, these restrictions and these options. A plan that blocked its
// CSR (expanded) matches that CSR's pattern and the blocked matrix itself,
// so a hierarchy's level 0 is the fine operator of the next fill as it is.
func (p *Plan) matches(fine sparse.Operator, rs []*sparse.CSR, opts Options) bool {
	if len(p.rs) != len(rs) {
		return false
	}
	for l, r := range rs {
		if p.rs[l] != r {
			return false
		}
	}
	if !p.opts.sameShape(opts) {
		return false
	}
	if c, ok := fine.(*sparse.CSR); ok && p.expanded {
		return p.fine.(*sparse.BSR).Expands(c)
	}
	return sparse.SamePattern(p.fine, fine)
}

// sameShape reports whether o and q configure the same hierarchy. The
// block rule is a function and is not compared: a Solver's options are
// fixed for its life.
func (o Options) sameShape(q Options) bool {
	o.BlockCount, q.BlockCount = nil, nil
	return reflect.DeepEqual(o, q)
}

// PatternBytes returns the bytes of the index arrays the plan keeps alive
// beyond what the hierarchies filled from it hold: the Galerkin plans'
// (sparse.GalerkinPlan.PatternBytes).
func (p *Plan) PatternBytes() int64 {
	var n int64
	for _, lp := range p.levels {
		if lp.gal != nil {
			n += lp.gal.PatternBytes()
		}
	}
	return n
}
