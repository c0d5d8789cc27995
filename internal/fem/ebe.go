package fem

import (
	"fmt"
	"math"
	"sort"

	"prometheus/internal/mesh"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// maxElemDOF bounds the element dof count across the supported element
// types (hex20: 20 nodes x 3 dofs), sizing the fixed stack buffers of the
// apply kernels so every path is allocation-free and goroutine-safe.
const maxElemDOF = 60

// EBEOperator is the assembly-free element-by-element form of the reduced
// tangent stiffness: sparse.Operator implemented as gather -> per-element
// stiffness apply -> scatter, with no assembled fine-grid matrix anywhere.
// Each element's stiffness is integrated once at construction and stored
// as its packed upper triangle (the element tangent is symmetric, so the
// packed form halves the dominant storage term and makes the operator
// exactly symmetric), which is what puts the matrix-free fine level below
// assembled CSR in bytes/dof.
//
// Determinism is structural. Elements are greedily colored so that no two
// elements of a color share a vertex; the serial apply walks the elements
// in that same color-major order, so within a color each output index is
// written by exactly one element and the parallel colored dispatch
// (MulVecParallel over pool.DispatchIndexed) accumulates every output in
// the identical order at any worker count — bitwise equal to the serial
// product. The row-gather form used by MulVecRange and Residual replays
// each row's contributions in the same colored order with the same
// left-fold association, so all three paths agree bit for bit.
//
// Capabilities: BlockDiagonaler (3x3 nodal diagonal blocks when the
// reduced numbering is node-aligned), GalerkinAssembler (the first coarse
// operator assembled from element contributions), StorageLabeler and
// ByteAccounter. Deliberately absent: RowScanner and Sweeper — entry
// lookups and ordered sweeps are what this operator exists to avoid, and
// consumers fall back to apply-only algorithms through the capability
// seam.
type EBEOperator struct {
	n       int // reduced (free) dimension
	ndof    int // dofs per element
	ne      int
	packLen int // ndof*(ndof+1)/2 packed upper-triangle length

	// kp is the packed symmetric element stiffness per element id; dofs
	// maps each element's local dofs to reduced dofs (-1 = constrained);
	// fullDofs keeps the full numbering so constrained columns can look
	// up their prescribed values.
	kp       []float64
	dofs     []int32
	fullDofs []int32

	// order lists element ids color-major (ascending id within a color);
	// colorPtr bounds each color's span in order.
	order    []int32
	colorPtr []int

	// ws/wsPtr are the per-element write sets (free reduced dofs, local
	// order), claimed in the ownership table by the parallel dispatch.
	ws    []int32
	wsPtr []int32

	// Row-gather structure in colored order: row r's contributions are
	// (pairElem[p], pairLoc[p]) for p in [rowPtr[r], rowPtr[r+1]).
	rowPtr   []int32
	pairElem []int32
	pairLoc  []uint8

	// diag is the assembled diagonal; diagBlocks the assembled 3x3 nodal
	// diagonal blocks (nil when the reduced numbering is not
	// node-aligned); cf the constraint force K_fc·u_c accumulated at
	// construction.
	diag       []float64
	diagBlocks []float64
	cf         []float64

	// batches holds one IndexedKernel per color, converted to interface
	// values once at construction so a parallel apply allocates nothing.
	batches []pool.IndexedKernel
}

// NewEBEOperator integrates every element tangent of p at displacement u
// and returns the matrix-free operator over the free dofs of dm. cons
// supplies the prescribed values for the constraint-force vector (the
// K_fc·u_c term the assembled pipeline folds into the reduced right-hand
// side). The assembled reduced CSR from Constraints.Reduce is the parity
// oracle: both operators sum identical per-element contributions, so
// their products agree to a few ULPs per row (summation association and
// the exact symmetrization of the packed stiffness differ), while the
// EBE operator itself is run-to-run bitwise deterministic.
func NewEBEOperator(p *Problem, u []float64, cons *Constraints, dm *DofMap) (*EBEOperator, error) {
	m := p.M
	if len(u) != m.NumDOF() {
		return nil, fmt.Errorf("fem: ebe: u has %d entries, want %d", len(u), m.NumDOF())
	}
	nNodes := m.Type.NodesPerElem()
	ndof := 3 * nNodes
	if ndof > maxElemDOF {
		return nil, fmt.Errorf("fem: ebe: %d element dofs exceed the kernel bound %d", ndof, maxElemDOF)
	}
	ne := m.NumElems()
	a := &EBEOperator{
		n:       dm.NumFree(),
		ndof:    ndof,
		ne:      ne,
		packLen: ndof * (ndof + 1) / 2,
	}
	a.dofs = make([]int32, ne*ndof)
	a.fullDofs = make([]int32, ne*ndof)
	for e := 0; e < ne; e++ {
		for l, v := range m.Elems[e] {
			for i := 0; i < 3; i++ {
				a.fullDofs[e*ndof+3*l+i] = int32(3*v + i)
				a.dofs[e*ndof+3*l+i] = int32(dm.Full2Red[3*v+i])
			}
		}
	}
	if err := a.integrate(p, u); err != nil {
		return nil, err
	}
	a.color(m)
	a.buildWriteSets()
	a.buildGather()
	a.buildDiagonals(dm)
	a.buildConstraintForce(cons)
	a.batches = make([]pool.IndexedKernel, len(a.colorPtr)-1)
	for c := range a.batches {
		a.batches[c] = colorBatch{a: a, lo: a.colorPtr[c]}
	}
	return a, nil
}

// integrate fills kp with each element's packed tangent: the Problem's
// chunked integration, drained by copying the upper triangle of every
// element's slot.
func (a *EBEOperator) integrate(p *Problem, u []float64) error {
	a.kp = make([]float64, a.ne*a.packLen)
	ndof := a.ndof
	return p.integrateChunks(u, func(e0, e1 int, kes, _ []float64) {
		for e := e0; e < e1; e++ {
			ke := kes[(e-e0)*ndof*ndof : (e-e0+1)*ndof*ndof]
			kp := a.kp[e*a.packLen : (e+1)*a.packLen]
			idx := 0
			for i := 0; i < ndof; i++ {
				for j := i; j < ndof; j++ {
					kp[idx] = ke[i*ndof+j]
					idx++
				}
			}
		}
	})
}

// color greedily colors the elements so no two elements sharing a mesh
// vertex get the same color, then orders them color-major (ascending
// element id within each color). Deterministic: elements are visited in
// id order and each takes the smallest color unused by any earlier
// element on a shared vertex.
func (a *EBEOperator) color(m *mesh.Mesh) {
	ne := a.ne
	color := make([]int, ne)
	// used[v] is the bitmask of colors already taken by earlier elements
	// on vertex v. A vertex's element degree bounds its color demand;
	// 64 covers every mesh the generators produce (structured hex needs
	// 8) with a clear panic rather than silent corruption beyond that.
	used := make([]uint64, m.NumVerts())
	maxColor := 0
	for e := 0; e < ne; e++ {
		var taken uint64
		for _, v := range m.Elems[e] {
			taken |= used[v]
		}
		c := 0
		for taken&(1<<uint(c)) != 0 {
			c++
			if c >= 64 {
				panic("fem: ebe: element coloring needs more than 64 colors")
			}
		}
		color[e] = c
		if c > maxColor {
			maxColor = c
		}
		for _, v := range m.Elems[e] {
			used[v] |= 1 << uint(c)
		}
	}
	nc := maxColor + 1
	a.colorPtr = make([]int, nc+1)
	for _, c := range color {
		a.colorPtr[c+1]++
	}
	for c := 0; c < nc; c++ {
		a.colorPtr[c+1] += a.colorPtr[c]
	}
	a.order = make([]int32, ne)
	next := make([]int, nc)
	copy(next, a.colorPtr[:nc])
	for e := 0; e < ne; e++ {
		c := color[e]
		a.order[next[c]] = int32(e)
		next[c]++
	}
}

// buildWriteSets records each element's free reduced dofs in local order:
// the indices its scatter writes, and therefore its ownership claim.
func (a *EBEOperator) buildWriteSets() {
	a.wsPtr = make([]int32, a.ne+1)
	for e := 0; e < a.ne; e++ {
		cnt := int32(0)
		for _, d := range a.dofs[e*a.ndof : (e+1)*a.ndof] {
			if d >= 0 {
				cnt++
			}
		}
		a.wsPtr[e+1] = a.wsPtr[e] + cnt
	}
	a.ws = make([]int32, a.wsPtr[a.ne])
	k := 0
	for e := 0; e < a.ne; e++ {
		for _, d := range a.dofs[e*a.ndof : (e+1)*a.ndof] {
			if d >= 0 {
				a.ws[k] = d
				k++
			}
		}
	}
}

// buildGather builds the transpose (row-major) view of the element
// contributions in colored order, so the gather-form product replays each
// row's accumulation sequence exactly as the colored scatter produces it.
func (a *EBEOperator) buildGather() {
	counts := make([]int32, a.n+1)
	for _, e32 := range a.order {
		e := int(e32)
		for _, d := range a.dofs[e*a.ndof : (e+1)*a.ndof] {
			if d >= 0 {
				counts[d+1]++
			}
		}
	}
	for r := 0; r < a.n; r++ {
		counts[r+1] += counts[r]
	}
	a.rowPtr = counts
	total := int(a.rowPtr[a.n])
	a.pairElem = make([]int32, total)
	a.pairLoc = make([]uint8, total)
	next := make([]int32, a.n)
	copy(next, a.rowPtr[:a.n])
	for _, e32 := range a.order {
		e := int(e32)
		for l, d := range a.dofs[e*a.ndof : (e+1)*a.ndof] {
			if d >= 0 {
				p := next[d]
				a.pairElem[p] = e32
				a.pairLoc[p] = uint8(l)
				next[d] = p + 1
			}
		}
	}
}

// buildDiagonals assembles the scalar diagonal and, when the reduced
// numbering is 3-dof node-aligned, the 3x3 nodal diagonal blocks, both
// accumulated in ascending element order.
func (a *EBEOperator) buildDiagonals(dm *DofMap) {
	ndof := a.ndof
	a.diag = make([]float64, a.n)
	aligned := dm.NodeAligned(3)
	if aligned {
		a.diagBlocks = make([]float64, (a.n/3)*9)
	}
	for e := 0; e < a.ne; e++ {
		dofs := a.dofs[e*ndof : (e+1)*ndof]
		kp := a.kp[e*a.packLen : (e+1)*a.packLen]
		for l, d := range dofs {
			if d < 0 {
				continue
			}
			a.diag[d] += kp[a.pidx(l, l)]
		}
		if !aligned {
			continue
		}
		for ln := 0; ln < ndof/3; ln++ {
			d0 := dofs[3*ln]
			if d0 < 0 {
				continue
			}
			nb := int(d0) / 3
			blk := a.diagBlocks[nb*9 : nb*9+9]
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					li, lj := 3*ln+i, 3*ln+j
					if li <= lj {
						blk[3*i+j] += kp[a.pidx(li, lj)]
					} else {
						blk[3*i+j] += kp[a.pidx(lj, li)]
					}
				}
			}
		}
	}
}

// buildConstraintForce accumulates cf = K_fc·u_c in ascending element
// order: the term the assembled pipeline subtracts from the reduced
// right-hand side during Constraints.Reduce. Symmetrized entries of the
// packed stiffness serve both triangles, consistent with the operator's
// own apply.
func (a *EBEOperator) buildConstraintForce(cons *Constraints) {
	a.cf = make([]float64, a.n)
	if cons == nil || len(cons.Fixed) == 0 {
		return
	}
	ndof := a.ndof
	for e := 0; e < a.ne; e++ {
		dofs := a.dofs[e*ndof : (e+1)*ndof]
		full := a.fullDofs[e*ndof : (e+1)*ndof]
		kp := a.kp[e*a.packLen : (e+1)*a.packLen]
		for lc := 0; lc < ndof; lc++ {
			if dofs[lc] >= 0 {
				continue
			}
			uc, ok := cons.Fixed[int(full[lc])]
			if !ok || uc == 0 {
				continue
			}
			for lr := 0; lr < ndof; lr++ {
				d := dofs[lr]
				if d < 0 {
					continue
				}
				if lr <= lc {
					a.cf[d] += kp[a.pidx(lr, lc)] * uc
				} else {
					a.cf[d] += kp[a.pidx(lc, lr)] * uc
				}
			}
		}
	}
}

// pidx maps (i, j) with i <= j to the packed upper-triangle index.
func (a *EBEOperator) pidx(i, j int) int {
	return i*a.ndof - i*(i-1)/2 + (j - i)
}

// Rows implements sparse.Operator.
func (a *EBEOperator) Rows() int { return a.n }

// Cols implements sparse.Operator.
func (a *EBEOperator) Cols() int { return a.n }

// NNZ implements sparse.Operator: the stored scalar entry count (the
// packed element stiffnesses).
func (a *EBEOperator) NNZ() int { return a.ne * a.packLen }

// MulVecFlops implements sparse.Operator: one apply multiplies every
// element's dense ndof x ndof stiffness (2 flops per entry, the
// SpMV-equivalent convention).
func (a *EBEOperator) MulVecFlops() int64 {
	return 2 * int64(a.ne) * int64(a.ndof) * int64(a.ndof)
}

// Diag implements sparse.Operator.
func (a *EBEOperator) Diag() []float64 {
	out := make([]float64, a.n)
	copy(out, a.diag)
	return out
}

// BlockSize implements sparse.BlockDiagonaler.
func (a *EBEOperator) BlockSize() int { return 3 }

// DiagBlocks implements sparse.BlockDiagonaler: nil when the reduced
// numbering is not 3-dof node-aligned.
func (a *EBEOperator) DiagBlocks() []float64 {
	if a.diagBlocks == nil {
		return nil
	}
	out := make([]float64, len(a.diagBlocks))
	copy(out, a.diagBlocks)
	return out
}

// StorageLabel implements sparse.StorageLabeler.
func (a *EBEOperator) StorageLabel() string { return "mf" }

// StorageBytes implements sparse.ByteAccounter: every resident array of
// the operator, so bytes/dof comparisons against assembled storage are
// honest about the index structures, not just the values.
func (a *EBEOperator) StorageBytes() int64 {
	b := 8 * int64(len(a.kp)+len(a.diag)+len(a.diagBlocks)+len(a.cf))
	b += 4 * int64(len(a.dofs)+len(a.fullDofs)+len(a.order)+len(a.ws)+len(a.wsPtr)+len(a.rowPtr)+len(a.pairElem))
	b += int64(len(a.pairLoc))
	b += 8 * int64(len(a.colorPtr))
	return b
}

// LoadMap returns the operator's load map over the free dofs of m (the
// numbering it was built on): each row with a nonzero constraint force
// K_fc·u_c carries it as its one term, cf·1, which subtracts cf exactly.
// A row whose force is +0 carries none, since x - (+0) is x for every x.
func (a *EBEOperator) LoadMap(m *DofMap) *LoadMap {
	lm := &LoadMap{red2Full: m.Red2Full, ptr: []int{0}}
	for r, cf := range a.cf {
		if math.Float64bits(cf) != 0 {
			lm.rows = append(lm.rows, r)
			lm.coef = append(lm.coef, cf)
			lm.val = append(lm.val, 1)
			lm.ptr = append(lm.ptr, len(lm.coef))
		}
	}
	return lm
}

// NumColors returns the number of element colors (diagnostics).
func (a *EBEOperator) NumColors() int { return len(a.colorPtr) - 1 }

// applyElem scatters one element's contribution: gather the element's x
// values, multiply by the packed symmetric stiffness with each output
// row accumulated in ascending local-column order (a strict left fold,
// matched bit for bit by the row-gather form), scatter to the free dofs.
func (a *EBEOperator) applyElem(x, y []float64, e int) {
	ndof := a.ndof
	dofs := a.dofs[e*ndof : (e+1)*ndof]
	kp := a.kp[e*a.packLen : (e+1)*a.packLen]
	var xbuf, ybuf [maxElemDOF]float64
	xe := xbuf[:ndof]
	ye := ybuf[:ndof]
	for c, d := range dofs {
		if d >= 0 {
			xe[c] = x[d]
		} else {
			xe[c] = 0
		}
		ye[c] = 0
	}
	idx := 0
	for i := 0; i < ndof; i++ {
		xi := xe[i]
		ye[i] += kp[idx] * xi
		idx++
		for j := i + 1; j < ndof; j++ {
			v := kp[idx]
			idx++
			ye[i] += v * xe[j]
			ye[j] += v * xi
		}
	}
	for c, d := range dofs {
		if d >= 0 {
			y[d] += ye[c]
		}
	}
}

// gatherRow computes (A·x)[r] by replaying row r's element contributions
// in colored order with the same left-fold association as applyElem, so
// gather and scatter products are bitwise identical.
func (a *EBEOperator) gatherRow(x []float64, r int) float64 {
	ndof := a.ndof
	s := 0.0
	var xbuf [maxElemDOF]float64
	xe := xbuf[:ndof]
	for p := a.rowPtr[r]; p < a.rowPtr[r+1]; p++ {
		e := int(a.pairElem[p])
		lr := int(a.pairLoc[p])
		dofs := a.dofs[e*ndof : (e+1)*ndof]
		kp := a.kp[e*a.packLen : (e+1)*a.packLen]
		for c, d := range dofs {
			if d >= 0 {
				xe[c] = x[d]
			} else {
				xe[c] = 0
			}
		}
		ps := 0.0
		idx := lr // packed index of (0, lr)
		for j := 0; j < lr; j++ {
			ps += kp[idx] * xe[j]
			idx += ndof - j - 1
		}
		for j := lr; j < ndof; j++ {
			ps += kp[idx] * xe[j]
			idx++
		}
		s += ps
	}
	return s
}

// MulVec implements sparse.Operator: the canonical colored scatter.
func (a *EBEOperator) MulVec(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for _, e := range a.order {
		a.applyElem(x, y, int(e))
	}
}

// MulVecRange implements sparse.Operator via the row-gather form — the
// contract-satisfying kernel (writes exactly y[lo:hi]) that also makes
// the operator row-dispatchable through the worker pool.
func (a *EBEOperator) MulVecRange(x, y []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		y[r] = a.gatherRow(x, r)
	}
}

// Residual implements sparse.Operator: r = b - A·x by row gather.
func (a *EBEOperator) Residual(b, x, r []float64) {
	for i := 0; i < a.n; i++ {
		r[i] = b[i] - a.gatherRow(x, i)
	}
}

// colorBatch adapts one color's span of the element order to
// pool.IndexedKernel: item i is the i-th element of the color.
type colorBatch struct {
	a  *EBEOperator
	lo int
}

// ApplyOne implements pool.IndexedKernel.
func (b colorBatch) ApplyOne(x, y []float64, item int) {
	b.a.applyElem(x, y, int(b.a.order[b.lo+item]))
}

// WriteSet implements pool.IndexedKernel.
func (b colorBatch) WriteSet(item int) []int32 {
	e := b.a.order[b.lo+item]
	return b.a.ws[b.a.wsPtr[e]:b.a.wsPtr[e+1]]
}

// MulVecParallel computes y = A·x on the worker pool: one indexed
// dispatch per color, so concurrent scatters never share an output index
// (the coloring invariant, re-proved per element by the promdebug
// ownership claims). Within a color each output index is written by at
// most one element and colors run in fixed sequence, so the result is
// bitwise identical to MulVec at every worker count.
func (a *EBEOperator) MulVecParallel(p *pool.Pool, x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for c := range a.batches {
		p.DispatchIndexed(a.batches[c], x, y, a.colorPtr[c+1]-a.colorPtr[c])
	}
}

// AssembleGalerkin implements sparse.GalerkinAssembler: the first coarse
// operator R·A·Rᵀ assembled directly from element contributions,
// A_c = Σ_e (R·S_e)·k_e·(R·S_e)ᵀ with S_e the element scatter — so the
// matrix-free hierarchy never forms a fine-grid matrix. Entries
// accumulate in ascending element order (deterministic), and each
// off-diagonal pair is computed once and mirrored, so the coarse matrix
// is exactly symmetric.
func (a *EBEOperator) AssembleGalerkin(r *sparse.CSR) *sparse.CSR {
	if r.NCols != a.n {
		panic(fmt.Sprintf("fem: ebe: restriction has %d cols, operator has %d rows", r.NCols, a.n))
	}
	p := r.Transpose() // fine dof -> coarse entries
	ndof := a.ndof
	b := sparse.NewBuilder(r.NRows, r.NRows)
	// Per-element scratch: local coarse index list plus dense
	// Re (nc x ndof) and M = Re·ke (nc x ndof) workspaces, regrown to
	// the largest per-element coarse support seen.
	cidx := make(map[int]int)
	var clist []int
	var re, mm []float64
	ke := make([]float64, ndof*ndof)
	for e := 0; e < a.ne; e++ {
		dofs := a.dofs[e*ndof : (e+1)*ndof]
		kp := a.kp[e*a.packLen : (e+1)*a.packLen]
		idx := 0
		for i := 0; i < ndof; i++ {
			for j := i; j < ndof; j++ {
				ke[i*ndof+j] = kp[idx]
				ke[j*ndof+i] = kp[idx]
				idx++
			}
		}
		clist = clist[:0]
		for k := range cidx {
			delete(cidx, k)
		}
		for _, d := range dofs {
			if d < 0 {
				continue
			}
			cols, _ := p.Row(int(d))
			for _, cj := range cols {
				if _, ok := cidx[cj]; !ok {
					cidx[cj] = len(clist)
					clist = append(clist, cj)
				}
			}
		}
		nc := len(clist)
		if nc == 0 {
			continue
		}
		if cap(re) < nc*ndof {
			re = make([]float64, nc*ndof)
			mm = make([]float64, nc*ndof)
		}
		re = re[:nc*ndof]
		mm = mm[:nc*ndof]
		for i := range re {
			re[i] = 0
		}
		for l, d := range dofs {
			if d < 0 {
				continue
			}
			cols, vals := p.Row(int(d))
			for k, cj := range cols {
				re[cidx[cj]*ndof+l] = vals[k]
			}
		}
		// mm = Re·ke, then A_e[ci][cj] = mm[ci]·Re[cj].
		for ci := 0; ci < nc; ci++ {
			rrow := re[ci*ndof : (ci+1)*ndof]
			mrow := mm[ci*ndof : (ci+1)*ndof]
			for j := 0; j < ndof; j++ {
				s := 0.0
				for l := 0; l < ndof; l++ {
					if rl := rrow[l]; rl != 0 {
						s += rl * ke[l*ndof+j]
					}
				}
				mrow[j] = s
			}
		}
		for ci := 0; ci < nc; ci++ {
			mrow := mm[ci*ndof : (ci+1)*ndof]
			for cj := ci; cj < nc; cj++ {
				rrow := re[cj*ndof : (cj+1)*ndof]
				v := 0.0
				for l := 0; l < ndof; l++ {
					if rl := rrow[l]; rl != 0 {
						v += mrow[l] * rl
					}
				}
				if v == 0 {
					continue
				}
				b.Add(clist[ci], clist[cj], v)
				if ci != cj {
					b.Add(clist[cj], clist[ci], v)
				}
			}
		}
	}
	return b.Build()
}

// NodeAdjacency returns the reduced-node adjacency graph (free 3-dof
// nodes adjacent when an element couples them, self included), the graph
// a distributed halo is built from. Requires a node-aligned reduced
// numbering. Setup-time only; the lists are rebuilt per call.
func (a *EBEOperator) NodeAdjacency() ([][]int, error) {
	if a.diagBlocks == nil {
		return nil, fmt.Errorf("fem: ebe: node adjacency needs a node-aligned reduced numbering")
	}
	nn := a.n / 3
	adj := make([][]int, nn)
	ndof := a.ndof
	for e := 0; e < a.ne; e++ {
		dofs := a.dofs[e*ndof : (e+1)*ndof]
		for li := 0; li < ndof; li += 3 {
			di := dofs[li]
			if di < 0 {
				continue
			}
			ni := int(di) / 3
			for lj := 0; lj < ndof; lj += 3 {
				dj := dofs[lj]
				if dj < 0 {
					continue
				}
				adj[ni] = append(adj[ni], int(dj)/3)
			}
		}
	}
	for i := range adj {
		sort.Ints(adj[i])
		k := 0
		for _, v := range adj[i] {
			if k == 0 || v != adj[i][k-1] {
				adj[i][k] = v
				k++
			}
		}
		adj[i] = adj[i][:k]
	}
	return adj, nil
}

// MulVecNodes computes the block rows y[3·nb : 3·nb+3] for each listed
// node by row gather — the per-rank kernel of the distributed
// matrix-free product, bitwise identical per row to the serial product.
// Returns the flop count of the computed rows (2·ndof per gathered
// element pair), so distributed callers can meter per-rank work.
func (a *EBEOperator) MulVecNodes(x, y []float64, nodes []int) int64 {
	pairs := int64(0)
	for _, nb := range nodes {
		r := 3 * nb
		y[r] = a.gatherRow(x, r)
		y[r+1] = a.gatherRow(x, r+1)
		y[r+2] = a.gatherRow(x, r+2)
		pairs += int64(a.rowPtr[r+3] - a.rowPtr[r])
	}
	return 2 * int64(a.ndof) * pairs
}

// NumNodes returns the reduced node count (node-aligned numbering).
func (a *EBEOperator) NumNodes() int { return a.n / 3 }

// Compile-time interface conformance: the matrix-free operator and its
// capabilities.
var (
	_ sparse.Operator          = (*EBEOperator)(nil)
	_ sparse.BlockDiagonaler   = (*EBEOperator)(nil)
	_ sparse.GalerkinAssembler = (*EBEOperator)(nil)
	_ sparse.StorageLabeler    = (*EBEOperator)(nil)
	_ sparse.ByteAccounter     = (*EBEOperator)(nil)
	_ pool.IndexedKernel       = colorBatch{}
)
