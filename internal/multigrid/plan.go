package multigrid

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"prometheus/internal/check"
	"prometheus/internal/direct"
	"prometheus/internal/graph"
	"prometheus/internal/obs"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

// Plan is the symbolic half of a hierarchy build: everything New does that
// does not depend on the values of the fine operator, only on its pattern
// and on the restriction chain. Per level it holds
//
//   - the prolongation P = Rᵀ and the Galerkin plan (the patterns of R·A
//     and R·A·Rᵀ, and R's node weights on the blocked path);
//   - the pin list fixEmptyRows applies to the coarse operator;
//   - the storage decisions: the fine level's conversion, the pinned
//     layout each Galerkin product is written in, and the blocked layout a
//     scalar level is copied into to be applied;
//   - the smoother's partition, block members and factor envelopes
//     (smooth.BlockPlan);
//   - on the coarsest level, the Cholesky ordering and profile
//     (direct.Symbolic).
//
// Filling a plan writes values only: the Galerkin products, the value
// copies into the planned storages, the block factorizations and the
// coarse Cholesky. A plan is read-only once made, so every MG filled from
// it shares its patterns and owns its values and scratch, and concurrent
// fills of one plan are independent.
//
// The pin list is the one thing about a level that depends on values: a
// coarse dof is pinned when its diagonal is zero or nearly so, which a
// restriction weight of 1e-15 gives as surely as a missing one. So a plan
// is made by the build that first needs it, level by level as the values
// reach each level, and records the pin lists that build found; every
// later fill computes them again, and one that finds another list gives
// the plan up for a new one.
type Plan struct {
	opts Options
	rs   []*sparse.CSR
	// fine is the pattern of the operator the plan was made from: its
	// storage, dimensions and pattern are what a later fine operator must
	// repeat. When a CSR operator was blocked with no fill, fine is the
	// blocked pattern instead and expanded is set: the operator's pattern
	// is its expansion, and the plan keeps no second copy of its columns.
	fine     sparse.Operator
	expanded bool
	// fineAs is the pattern of the storage the fine operator is converted
	// to (Options.Storage), nil when it is used as handed in.
	fineAs sparse.Operator
	levels []*levelPlan
}

// levelPlan is one level of a Plan.
type levelPlan struct {
	R, P *sparse.CSR
	gal  *sparse.GalerkinPlan // nil on level 0
	// pins is fixEmptyRows' list for this level (nil: no dof pinned).
	pins []int
	// apply is the blocked layout the level's scalar matrix is copied into
	// for the cycle to apply; nil when it is applied as formed.
	apply *sparse.BSR
	bj    *smooth.BlockPlan
	chol  *direct.Symbolic
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
	s := fine
	switch t := p.fineAs.(type) {
	case *sparse.CSR:
		s = t.FillFromBSR(fine.(*sparse.BSR))
	case *sparse.BSR:
		s = t.FillFromCSR(fine.(*sparse.CSR))
	}
	for l := 0; l <= len(p.rs); l++ {
		if planning {
			p.levels = append(p.levels, &levelPlan{})
		}
		lp := p.levels[l]
		if l > 0 {
			var err error
			if s, err = p.galerkin(l, s, planning); err != nil {
				return nil, err
			}
			// Galerkin product cost estimate: ~2 flops per multiply-add over
			// the row-merge; use 4·nnz(A)·avg row of R as a proxy.
			mg.SetupFlops += 4 * int64(s.NNZ())
		}
		if planning {
			if err := p.planLevel(l, s, fine); err != nil {
				return nil, err
			}
		}
		lvl := newLevel(s)
		lvl.R, lvl.P = lp.R, lp.P
		mg.Levels = append(mg.Levels, lvl)
		if lp.apply != nil {
			// The BSR product adds a row's entries in the scalar order, so
			// the copy changes the kernel and no bit of the result.
			lvl.A = lp.apply.FillFromCSR(s.(*sparse.CSR))
		}
		if lp.chol != nil {
			ch, err := lp.chol.Factor(sparse.Values(s))
			if err != nil {
				return nil, fmt.Errorf("multigrid: coarsest factorization: %w", err)
			}
			lvl.Direct = ch
			mg.SetupFlops += ch.FactorFlops
			continue
		}
		sps := obs.Start(evSmoother)
		sm, err := mg.makeSmoother(lvl.A, lp.bj, s)
		sps.End()
		if err != nil {
			return nil, err
		}
		lvl.Smoother = sm
	}
	return mg, nil
}

// planFine plans the fine level's storage: the conversion Options.Storage
// asks for, if any.
func (p *Plan) planFine() {
	switch p.opts.Storage {
	case StorageCSR:
		if b, ok := p.fine.(*sparse.BSR); ok {
			p.fineAs = b.ScalarPattern()
		}
	case StorageBSR:
		if c, ok := p.fine.(*sparse.CSR); ok {
			if t := sparse.PlanBlock(c, nodeDofs); t != nil {
				p.fineAs = t
				if t.NNZ() == c.NNZ() {
					p.fine, p.expanded = t, true
				}
			}
		}
	}
}

// galerkin forms level l's matrix from s, the matrix of the level above:
// the Galerkin product with fixEmptyRows' pins, written in the storage the
// level is applied in. planning says the plan does not have level l yet:
// the product's patterns are planned first, and its storage once the
// values have given the pin list, which is recorded. Otherwise a pin list
// other than the recorded one is errPinsMoved.
func (p *Plan) galerkin(l int, s sparse.Operator, planning bool) (sparse.Operator, error) {
	lp := p.levels[l]
	if planning {
		r := p.rs[l-1]
		if r.NCols != s.Rows() {
			return nil, fmt.Errorf("multigrid: restriction %dx%d does not match operator %d", r.NRows, r.NCols, s.Rows())
		}
		lp.planGalerkin(r, s)
	}
	ra, keep, maxd := lp.restrict(s)
	switch {
	case planning:
		sp := obs.Start(evPlan)
		lp.pins = keep
		p.planStorage(l)
		sp.End()
	case !slices.Equal(keep, lp.pins):
		return nil, errPinsMoved
	}
	spg := obs.Start(evGalerkin)
	c := lp.gal.Fill(ra, keep, maxd)
	spg.End()
	return c, nil
}

// planGalerkin plans the level's transfers and the patterns of its
// Galerkin product under restriction r from the level above's matrix s.
func (lp *levelPlan) planGalerkin(r *sparse.CSR, s sparse.Operator) {
	defer obs.Start(evPlan).End()
	lp.R, lp.P = r, r.Transpose()
	spg := obs.Start(evGalerkin)
	lp.gal = sparse.PlanGalerkin(r, lp.P, s)
	spg.End()
}

// restrict forms R·A for s, the level above's matrix, and from the
// diagonal of R·A·Rᵀ the pins fixEmptyRows applies to it.
func (lp *levelPlan) restrict(s sparse.Operator) (ra []float64, keep []int, maxd float64) {
	defer obs.Start(evGalerkin).End()
	ra = lp.gal.RA(s)
	keep, maxd = pinList(lp.gal.Diag(ra))
	return ra, keep, maxd
}

// planStorage plans what level l's Galerkin product is written into — its
// pattern with the rows and columns fixEmptyRows pins, which a blocked
// product leaves in scalar rows — and, when that is a scalar matrix on a
// smoothed level and the block kernel is wanted (any storage but
// StorageCSR) and fits, the blocked layout it is copied into to be applied.
// Setup and the next product read the scalar matrix.
func (p *Plan) planStorage(l int) {
	lp := p.levels[l]
	t := lp.gal.Pattern()
	if lp.pins != nil {
		c := sparse.ScalarPatternOf(t)
		c = c.SelectPattern(lp.pins, lp.pins, c.NCols)
		lp.gal.Target(c)
		t = c
	}
	if c, ok := t.(*sparse.CSR); ok && l < len(p.rs) && p.opts.Storage != StorageCSR {
		lp.apply = sparse.PlanBlock(c, nodeDofs)
	}
}

// planLevel plans what level l does with its matrix s: the ordering of the
// coarsest level's factorization, from s's own entries, or the smoother's
// blocks and, from s's pattern, the envelopes their factors are stored in.
// A level 0 blocked from a CSR with no fill (expanded) reads the pattern
// from fine, the CSR it was blocked from, which is exactly s's expansion.
// The partition runs on the pattern itself: for a structurally symmetric
// pattern a row's columns are its graph neighbours and the row itself,
// which the partitioner's search has assigned before it looks.
func (p *Plan) planLevel(l int, s, fine sparse.Operator) error {
	sp := obs.Start(evPlan)
	defer sp.End()
	lp := p.levels[l]
	if l == len(p.rs) {
		ch, err := direct.Plan(sparse.EntriesOf(s))
		if err != nil {
			return fmt.Errorf("multigrid: coarsest factorization: %w", err)
		}
		lp.chol = ch
		return nil
	}
	pat := s
	if l == 0 && p.expanded {
		pat = fine
	}
	e := sparse.ScalarPatternOf(pat)
	if check.Enabled {
		check.SymmetricPattern(e.NRows, e.RowPtr, e.ColIdx, fmt.Sprintf("multigrid: level %d pattern", l))
	}
	nb := p.opts.BlockCount(e.NRows)
	spp := obs.Start(evSmootherPartition)
	part := graph.GreedyPartition(&graph.Graph{N: e.NRows, Ptr: e.RowPtr, Adj: e.ColIdx}, nb)
	spp.End()
	lp.bj = smooth.PlanBlocks(e, graph.PartMembers(part, nb))
	return nil
}

// matches reports whether the plan was made for fine's storage and
// pattern, these restrictions and these options.
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
	if p.expanded {
		c, ok := fine.(*sparse.CSR)
		return ok && p.fine.(*sparse.BSR).Expands(c)
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
// patterns of R·A (sparse.GalerkinPlan.PatternBytes), and the scalar
// pattern of every level applied in blocks.
func (p *Plan) PatternBytes() int64 {
	var n int64
	for _, lp := range p.levels {
		if lp.gal != nil {
			n += lp.gal.PatternBytes()
		}
		if lp.apply != nil {
			n += sparse.StorageBytes(lp.gal.Pattern())
		}
	}
	return n
}
