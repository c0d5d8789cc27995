// Package direct provides the coarsest-grid direct solver: a profile
// (skyline) Cholesky factorization preceded by a reverse Cuthill-McKee
// reordering to compress the profile. The paper solves its coarsest grid
// directly ("solve coarsest problem directly", Figure 1); coarse operators
// here are small (a few hundred to a few thousand dofs), where profile
// Cholesky is simple and entirely adequate.
package direct

import (
	"errors"
	"math"

	"prometheus/internal/graph"
	"prometheus/internal/sparse"
)

// ErrNotSPD is returned when a non-positive pivot arises.
var ErrNotSPD = errors.New("direct: matrix is not positive definite")

// Cholesky is a profile Cholesky factorization P·A·Pᵀ = L·Lᵀ.
type Cholesky struct {
	*Symbolic
	rows [][]float64 // row i of L: columns first[i]..i
	work []float64   // Solve's permuted vector, hoisted so a solve never allocates
	// FactorFlops is the flop count of the factorization.
	FactorFlops int64
}

// Symbolic is the pattern half of the factorization: the reverse
// Cuthill-McKee order, the profile it gives, and where each stored entry
// of A's lower triangle lands in the profile. It is shared, read-only, by
// every factor made from it.
type Symbolic struct {
	n     int
	perm  []int // new -> old
	iperm []int // old -> new
	first []int // first stored column of each row
	off   []int // row i of the profile at [off[i], off[i+1]) of the factor
	// Entry t of A's lower triangle goes to profile position dst[t] from
	// value src[t] of A's value array.
	dst, src []int32
}

// New factors the SPD matrix a: Plan and Factor in one.
func New(a *sparse.CSR) (*Cholesky, error) {
	s, err := Plan(sparse.EntriesOf(a))
	if err != nil {
		return nil, err
	}
	return s.Factor(a.Val)
}

// Plan orders and profiles the pattern e.
func Plan(e *sparse.Entries) (*Symbolic, error) {
	if e.NRows != e.NCols {
		return nil, errors.New("direct: matrix must be square")
	}
	if len(e.ColIdx) > math.MaxInt32 {
		return nil, errors.New("direct: matrix too large to factor")
	}
	n := e.NRows
	// RCM on the matrix graph.
	g := graph.NewFromPattern(n, e.RowPtr, e.ColIdx)
	perm := graph.ReverseCuthillMcKee(g)
	iperm := make([]int, n)
	for newI, old := range perm {
		iperm[old] = newI
	}

	// Profile: first[i] = min over stored columns (in new order).
	first := make([]int, n)
	for i := range first {
		first[i] = i
	}
	for oldI := 0; oldI < n; oldI++ {
		i := iperm[oldI]
		for _, oldJ := range e.ColIdx[e.RowPtr[oldI]:e.RowPtr[oldI+1]] {
			j := iperm[oldJ]
			if j < first[i] {
				first[i] = j
			}
			if i < first[j] {
				first[j] = i
			}
		}
	}
	s := &Symbolic{n: n, perm: perm, iperm: iperm, first: first, off: make([]int, n+1)}
	for i := 0; i < n; i++ {
		s.off[i+1] = s.off[i] + i - first[i] + 1
	}
	if s.off[n] > math.MaxInt32 {
		return nil, errors.New("direct: profile too large to factor")
	}
	// The scatter of A into the profile (lower triangle, permuted).
	for oldI := 0; oldI < n; oldI++ {
		i := iperm[oldI]
		for k := e.RowPtr[oldI]; k < e.RowPtr[oldI+1]; k++ {
			j := iperm[e.ColIdx[k]]
			if j > i {
				continue
			}
			src := k
			if e.Src != nil {
				src = e.Src[k]
			}
			s.dst = append(s.dst, int32(s.off[i]+j-first[i]))
			s.src = append(s.src, int32(src))
		}
	}
	return s, nil
}

// Factor factors the matrix whose values are vals, in the storage the
// plan's Entries index.
func (s *Symbolic) Factor(vals []float64) (*Cholesky, error) {
	n := s.n
	c := &Cholesky{Symbolic: s, rows: make([][]float64, n), work: make([]float64, n)}
	l := make([]float64, s.off[n])
	for i := range c.rows {
		c.rows[i] = l[s.off[i]:s.off[i+1]:s.off[i+1]]
	}
	for t, d := range s.dst {
		l[d] += vals[s.src[t]]
	}
	// Profile Cholesky: for each row i, for j in [first[i], i]:
	// L(i,j) = (A(i,j) - sum_k L(i,k) L(j,k)) / L(j,j), k from
	// max(first[i], first[j]) to j-1.
	for i := 0; i < n; i++ {
		fi := c.first[i]
		ri := c.rows[i]
		for j := fi; j <= i; j++ {
			fj := c.first[j]
			lo := fi
			if fj > lo {
				lo = fj
			}
			s := ri[j-fi]
			rj := c.rows[j]
			for k := lo; k < j; k++ {
				s -= ri[k-fi] * rj[k-fj]
			}
			c.FactorFlops += 2 * int64(j-lo)
			if i == j {
				if !(s > 0) {
					return nil, ErrNotSPD
				}
				ri[j-fi] = math.Sqrt(s)
			} else {
				ri[j-fi] = s / rj[j-fj]
			}
		}
	}
	return c, nil
}

// Solve computes x = A⁻¹·b. b and x may alias. It works in the factor's own
// scratch vector, so one factorization serves one solve at a time.
func (c *Cholesky) Solve(b, x []float64) {
	n := c.n
	y := c.work
	for i := 0; i < n; i++ {
		y[i] = b[c.perm[i]]
	}
	// Forward: L·z = P·b.
	for i := 0; i < n; i++ {
		fi := c.first[i]
		ri := c.rows[i]
		s := y[i]
		for k := fi; k < i; k++ {
			s -= ri[k-fi] * y[k]
		}
		y[i] = s / ri[i-fi]
	}
	// Backward: Lᵀ·w = z.
	for i := n - 1; i >= 0; i-- {
		fi := c.first[i]
		ri := c.rows[i]
		y[i] /= ri[i-fi]
		v := y[i]
		for k := fi; k < i; k++ {
			y[k] -= ri[k-fi] * v
		}
	}
	for i := 0; i < n; i++ {
		x[c.perm[i]] = y[i]
	}
}

// SolveFlops returns the flop count of one Solve call.
func (c *Cholesky) SolveFlops() int64 { return 4 * int64(c.off[c.n]) }

// N returns the system size.
func (c *Cholesky) N() int { return c.n }
