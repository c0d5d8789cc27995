package fem

import (
	"prometheus/internal/check"
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

// Scaled returns a copy of the constraints with every prescribed value
// multiplied by s (load stepping of the displacement-driven problems); c is
// left unchanged.
func (c *Constraints) Scaled(s float64) *Constraints {
	out := NewConstraints()
	for d, v := range c.Fixed {
		out.Fixed[d] = v * s
	}
	return out
}

// Homogeneous returns the constraint set on c's dofs with every prescribed
// value zero, the form increments and corrections satisfy; c is left
// unchanged. Every value is FixDof(d, 0), a +0 — Scaled(0) would store -0
// for a negative one.
func (c *Constraints) Homogeneous() *Constraints {
	out := NewConstraints()
	for d := range c.Fixed {
		out.FixDof(d, 0)
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

// Reduce eliminates the constrained dofs from the full blocked operator
// K: it returns the reduced scalar matrix over the free dofs, read
// straight from K's blocks (sparse.BSR.Select), and the load map that
// writes the reduced right-hand side fRed = f_free - K_fc·u_c of any load
// f, with the prescribed values u_c. Under promdebug the reduced matrix
// must be symmetric bit for bit.
func (c *Constraints) Reduce(k *sparse.BSR, m *DofMap) (*sparse.CSR, *LoadMap) {
	sp := obs.Start(evReduce)
	defer sp.End()
	kRed := k.Select(m.Red2Full, m.Full2Red, m.NumFree(), 0)
	if check.Enabled {
		check.SymmetricValues(kRed.NRows, 1, kRed.RowPtr, kRed.ColIdx, kRed.Val, "fem: reduced operator")
	}
	return kRed, c.newLoadMap(k, kRed, m)
}

// LoadMap is the right-hand-side half of a reduction: it turns a load on
// the full dof numbering into the reduced right-hand side
// fRed = (s·f)_free - K_fc·u_c of one operator and constraint set, so a
// system solved under many loads is reduced once. Only the free rows
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

// Bytes returns the bytes of the map's own arrays: the rows it writes,
// their extents, and each term's coefficient and prescribed value. The
// reduced-to-full numbering is the dof map's and is not counted.
func (lm *LoadMap) Bytes() int64 {
	return 8 * int64(len(lm.rows)+len(lm.ptr)+len(lm.coef)+len(lm.val))
}

// newLoadMap extracts the load map of the full-numbering matrix k under
// the constraints, given kRed, k's free rows and columns as Select keeps
// them. A free row couples to a constrained dof exactly in the entries
// Select dropped from it, so the row lengths of k and kRed size the map
// and name the rows to fill: no other row is read. Scalar row r of k is
// row r%B of the blocks of block row r/B, walked as Select walks it.
func (c *Constraints) newLoadMap(k *sparse.BSR, kRed *sparse.CSR, m *DofMap) *LoadMap {
	b := k.B
	dropped := func(rRed, rFull int) int {
		return b*(k.RowPtr[rFull/b+1]-k.RowPtr[rFull/b]) - kRed.RowNNZ(rRed)
	}
	nrows, nterms := 0, 0
	for rRed, rFull := range m.Red2Full {
		if n := dropped(rRed, rFull); n > 0 {
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
		if dropped(rRed, rFull) == 0 {
			continue
		}
		ib, d := rFull/b, rFull%b
		for q := k.RowPtr[ib]; q < k.RowPtr[ib+1]; q++ {
			for cc := 0; cc < b; cc++ {
				if cFull := k.ColIdx[q]*b + cc; m.Full2Red[cFull] < 0 {
					lm.coef = append(lm.coef, k.Val[(q*b+d)*b+cc])
					lm.val = append(lm.val, c.Fixed[cFull])
				}
			}
		}
		lm.rows = append(lm.rows, rRed)
		lm.ptr = append(lm.ptr, len(lm.coef))
	}
	return lm
}

// Apply writes the reduced right-hand side of the load s·f into dst (one
// entry per free dof): each row starts from its scaled load and subtracts
// its terms in column order, so Apply with f and s gives bit for bit the
// reduction of the vector s·f (s = 1 leaves f's bits as they are, s = -1
// flips only their signs). The conversion rounds s·f before the
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
