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
	n     int
	perm  []int // new -> old
	iperm []int // old -> new
	first []int // first stored column of each row
	rows  [][]float64
	work  []float64 // Solve's permuted vector, hoisted so a solve never allocates
	// FactorFlops is the flop count of the factorization.
	FactorFlops int64
}

// New factors the SPD matrix a.
func New(a *sparse.CSR) (*Cholesky, error) {
	if a.NRows != a.NCols {
		return nil, errors.New("direct: matrix must be square")
	}
	n := a.NRows
	// RCM on the matrix graph.
	g := graph.NewFromPattern(n, a.RowPtr, a.ColIdx)
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
		cols, _ := a.Row(oldI)
		for _, oldJ := range cols {
			j := iperm[oldJ]
			if j < first[i] {
				first[i] = j
			}
			if i < first[j] {
				first[j] = i
			}
		}
	}
	c := &Cholesky{n: n, perm: perm, iperm: iperm, first: first, work: make([]float64, n)}
	c.rows = make([][]float64, n)
	for i := 0; i < n; i++ {
		c.rows[i] = make([]float64, i-first[i]+1)
	}
	// Scatter A into the profile (lower triangle, permuted).
	for oldI := 0; oldI < n; oldI++ {
		i := iperm[oldI]
		cols, vals := a.Row(oldI)
		for k, oldJ := range cols {
			j := iperm[oldJ]
			if j > i {
				continue
			}
			c.rows[i][j-first[i]] += vals[k]
		}
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
func (c *Cholesky) SolveFlops() int64 {
	var nnz int64
	for i := range c.rows {
		nnz += int64(len(c.rows[i]))
	}
	return 4 * nnz
}

// N returns the system size.
func (c *Cholesky) N() int { return c.n }
