package fem

import (
	"fmt"
	"math"

	"prometheus/internal/mesh"
)

// maxElemDOF bounds the element dof count across the supported element
// types (hex20: 20 nodes x 3 dofs), sizing the fixed stack buffers of the
// apply kernel so it is allocation-free.
const maxElemDOF = 60

// EBEOperator is the element-by-element form of the reduced tangent
// stiffness: y = A·x as gather -> per-element stiffness apply -> scatter,
// with no assembled fine-grid matrix. Each element's stiffness is
// integrated once at construction and stored as its packed upper triangle
// (the element tangent is symmetric, so the packed form halves the
// dominant storage term and makes the operator exactly symmetric).
//
// It is a measurement, not a solver operator: it implements no sparse or
// pool interface, so no hierarchy, smoother or Krylov method can be handed
// one. The serial product walks the elements color-major (no two elements
// of a color share a vertex), a fixed order, so two runs agree bit for
// bit.
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

	// cf is the constraint force K_fc·u_c accumulated at construction.
	cf []float64
}

// NewEBEOperator integrates every element tangent of p at displacement u
// and returns the element-by-element operator over the free dofs of dm.
// cons supplies the prescribed values for the constraint-force vector (the
// K_fc·u_c term the assembled pipeline folds into the reduced right-hand
// side). The assembled reduced CSR from Constraints.Reduce is the parity
// oracle: both operators sum identical per-element contributions, so
// their products agree to a few ULPs per row (summation association and
// the exact symmetrization of the packed stiffness differ).
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
	a.buildConstraintForce(cons)
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

// Rows returns the reduced (free) dimension.
func (a *EBEOperator) Rows() int { return a.n }

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

// applyElem scatters one element's contribution: gather the element's x
// values, multiply by the packed symmetric stiffness with each output
// row accumulated in ascending local-column order, scatter to the free
// dofs.
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

// MulVec computes y = A·x: every element's scatter, color-major.
func (a *EBEOperator) MulVec(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for _, e := range a.order {
		a.applyElem(x, y, int(e))
	}
}
