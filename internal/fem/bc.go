package fem

import (
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// Constraints holds Dirichlet boundary conditions as dof -> prescribed
// value. The solver eliminates constrained dofs, producing a reduced SPD
// system over the free dofs (the approach used throughout: the coarse grids
// carry no constraints of their own, the Galerkin products inherit them).
type Constraints struct {
	Fixed map[int]float64
}

// NewConstraints returns an empty constraint set.
func NewConstraints() *Constraints {
	return &Constraints{Fixed: make(map[int]float64)}
}

// FixVert constrains all three dofs of vertex v to the given displacement.
func (c *Constraints) FixVert(v int, ux, uy, uz float64) {
	c.Fixed[3*v] = ux
	c.Fixed[3*v+1] = uy
	c.Fixed[3*v+2] = uz
}

// FixDof constrains a single dof (3*vert + comp).
func (c *Constraints) FixDof(dof int, val float64) { c.Fixed[dof] = val }

// SetScale multiplies every prescribed value by s (load stepping of the
// displacement-driven problems).
func (c *Constraints) Scaled(s float64) *Constraints {
	out := NewConstraints()
	for d, v := range c.Fixed {
		out.Fixed[d] = v * s
	}
	return out
}

// DofMap relates the full dof numbering to the reduced (free) numbering.
type DofMap struct {
	Full2Red []int // -1 for constrained dofs
	Red2Full []int
}

// NumFree returns the number of free dofs.
func (m *DofMap) NumFree() int { return len(m.Red2Full) }

// NodeAligned reports whether the reduced numbering preserves b-dof node
// blocks: every node has either all b of its dofs free or all b fixed, and
// free nodes keep their dofs consecutive in the reduced numbering. When
// true, the reduced operator can be stored in b-block BSR form with node
// boundaries intact. Constraints built with FixVert satisfy this;
// component-wise FixDof constraints (e.g. a symmetry plane) do not.
func (m *DofMap) NodeAligned(b int) bool {
	if b <= 1 || len(m.Full2Red)%b != 0 {
		return false
	}
	for v := 0; v < len(m.Full2Red); v += b {
		r0 := m.Full2Red[v]
		free := r0 >= 0
		for d := 1; d < b; d++ {
			r := m.Full2Red[v+d]
			if (r >= 0) != free {
				return false
			}
			if free && r != r0+d {
				return false
			}
		}
	}
	return true
}

// NewDofMap builds the mapping for n total dofs under the constraints.
func (c *Constraints) NewDofMap(n int) *DofMap {
	m := &DofMap{Full2Red: make([]int, n)}
	for d := 0; d < n; d++ {
		if _, fixed := c.Fixed[d]; fixed {
			m.Full2Red[d] = -1
			continue
		}
		m.Full2Red[d] = len(m.Red2Full)
		m.Red2Full = append(m.Red2Full, d)
	}
	return m
}

// Apply writes the prescribed values into the full displacement vector.
func (c *Constraints) Apply(u []float64) {
	for d, v := range c.Fixed {
		u[d] = v
	}
}

// Reduce eliminates the constrained dofs from the full system K·u = f:
// it returns the reduced matrix over free dofs and the reduced right-hand
// side fRed = f_free - K_fc·u_c with the prescribed values u_c.
func (c *Constraints) Reduce(k *sparse.CSR, f []float64, m *DofMap) (*sparse.CSR, []float64) {
	sp := obs.Start(evReduce)
	defer sp.End()
	kRed := k.Select(m.Red2Full, m.Full2Red, m.NumFree(), 0)
	fr := make([]float64, m.NumFree())
	for rRed, rFull := range m.Red2Full {
		fr[rRed] = f[rFull]
		cols, vals := k.Row(rFull)
		for i, cFull := range cols {
			if m.Full2Red[cFull] < 0 {
				fr[rRed] -= vals[i] * c.Fixed[cFull]
			}
		}
	}
	return kRed, fr
}

// ReduceOperator is Reduce without a right-hand side: it returns the
// reduced matrix and the load map that gives the right-hand side of any
// load, for a system solved under many loads.
func (c *Constraints) ReduceOperator(k *sparse.CSR, m *DofMap) (*sparse.CSR, *LoadMap) {
	sp := obs.Start(evReduce)
	defer sp.End()
	return k.Select(m.Red2Full, m.Full2Red, m.NumFree(), 0), c.newLoadMap(k, m)
}

// LoadMap is the right-hand-side half of a reduction kept as an object:
// it turns a load on the full dof numbering into the reduced right-hand
// side fRed = (s·f)_free - K_fc·u_c of one operator and constraint set,
// so a system solved under many loads is reduced once. Only the free rows
// that couple to a constrained dof carry terms: row rows[j] subtracts
// coef[t]·val[t] for t in [ptr[j], ptr[j+1]), the entries of K_fc in
// column order beside the prescribed values they multiply. A built map is
// never written, so concurrent Applies may share it.
type LoadMap struct {
	red2Full []int
	rows     []int
	ptr      []int
	coef     []float64
	val      []float64
}

// newLoadMap extracts the load map of the full-numbering matrix k under
// the constraints. A counting pass over the free rows sizes the map, and
// a second pass fills it.
func (c *Constraints) newLoadMap(k *sparse.CSR, m *DofMap) *LoadMap {
	nrows, nterms := 0, 0
	for _, rFull := range m.Red2Full {
		cols, _ := k.Row(rFull)
		n := 0
		for _, cFull := range cols {
			if m.Full2Red[cFull] < 0 {
				n++
			}
		}
		if n > 0 {
			nrows++
			nterms += n
		}
	}
	lm := &LoadMap{
		red2Full: m.Red2Full,
		rows:     make([]int, 0, nrows),
		ptr:      make([]int, 1, nrows+1),
		coef:     make([]float64, 0, nterms),
		val:      make([]float64, 0, nterms),
	}
	for rRed, rFull := range m.Red2Full {
		cols, vals := k.Row(rFull)
		n := len(lm.coef)
		for i, cFull := range cols {
			if m.Full2Red[cFull] < 0 {
				lm.coef = append(lm.coef, vals[i])
				lm.val = append(lm.val, c.Fixed[cFull])
			}
		}
		if len(lm.coef) > n {
			lm.rows = append(lm.rows, rRed)
			lm.ptr = append(lm.ptr, len(lm.coef))
		}
	}
	return lm
}

// Apply writes the reduced right-hand side of the load s·f into dst (one
// entry per free dof): each row starts from its scaled load and subtracts
// its terms in column order, the order Reduce uses, so Apply with f and s
// gives bit for bit what Reduce gives for the vector s·f (s = 1 leaves
// f's bits as they are). The conversion rounds s·f before the
// subtractions, so no fused multiply-add can join them.
func (lm *LoadMap) Apply(dst, f []float64, s float64) {
	for r, d := range lm.red2Full {
		dst[r] = float64(s * f[d])
	}
	for j, r := range lm.rows {
		for t := lm.ptr[j]; t < lm.ptr[j+1]; t++ {
			dst[r] -= lm.coef[t] * lm.val[t]
		}
	}
}

// Expand scatters a reduced vector into a full vector, filling constrained
// entries with their prescribed values.
func (c *Constraints) Expand(red []float64, m *DofMap, full []float64) {
	for d := range full {
		full[d] = 0
	}
	c.Apply(full)
	for r, d := range m.Red2Full {
		full[d] = red[r]
	}
}
