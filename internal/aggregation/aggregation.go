// Package aggregation implements smoothed aggregation algebraic multigrid
// (Vaněk, Mandel & Brezina — the paper's reference [25]). The paper's
// conclusion names it as the alternative unstructured multigrid algorithm
// to evaluate ("we also plan to explore alternative (effective)
// unstructured multigrid algorithms such as smoothed aggregation"); this
// package provides it as a drop-in restriction-chain builder so the same
// multigrid/Krylov machinery runs either hierarchy and the two can be
// compared head-to-head (prombench -exp amg).
//
// The construction is the standard one: a strength-of-connection graph,
// greedy aggregation, a tentative prolongator whose columns are the
// orthonormalized restriction of the near-null space (rigid body modes for
// elasticity) to each aggregate, and one step of damped Jacobi prolongator
// smoothing P = (I - ω D⁻¹A)·P0.
package aggregation

import (
	"errors"
	"fmt"
	"math"

	"prometheus/internal/geom"
	"prometheus/internal/la"
	"prometheus/internal/sparse"
)

// The SA setup's constants.
const (
	// theta is the strength threshold: i and j are strongly connected
	// when |a_ij| > theta·sqrt(a_ii·a_jj).
	theta = 0.08
	// omega scales the prolongator smoothing step relative to 1/λmax of
	// D⁻¹A; the classical choice is 4/3.
	omega = 4.0 / 3.0
	// minCoarse stops coarsening at this many dofs.
	minCoarse = 200
	// maxLevels bounds the hierarchy depth.
	maxLevels = 16
)

// RigidBodyModes returns the 6 rigid body modes of a 3-dof-per-vertex
// elasticity discretization, restricted to the free dofs: three
// translations and three infinitesimal rotations about the centroid.
// full2red maps full dof -> reduced dof (-1 when constrained); nred is the
// reduced dimension.
func RigidBodyModes(coords []geom.Vec3, full2red []int, nred int) *la.Dense {
	b := la.NewDense(nred, 6)
	// Centroid improves the conditioning of the rotational modes.
	var c geom.Vec3
	for _, p := range coords {
		c = c.Add(p)
	}
	if len(coords) > 0 {
		c = c.Scale(1 / float64(len(coords)))
	}
	for v, p := range coords {
		x, y, z := p.X-c.X, p.Y-c.Y, p.Z-c.Z
		// mode values for dof components (ux, uy, uz):
		// t_x, t_y, t_z, r_z = (-y, x, 0), r_y = (z, 0, -x), r_x = (0, -z, y)
		rows := [3][6]float64{
			{1, 0, 0, -y, z, 0},
			{0, 1, 0, x, 0, -z},
			{0, 0, 1, 0, -x, y},
		}
		for comp := 0; comp < 3; comp++ {
			rd := full2red[3*v+comp]
			if rd < 0 {
				continue
			}
			for m := 0; m < 6; m++ {
				b.Set(rd, m, rows[comp][m])
			}
		}
	}
	return b
}

// Constants returns the k=1 near-null space (the constant vector), the
// right choice for scalar problems.
func Constants(n int) *la.Dense {
	b := la.NewDense(n, 1)
	for i := 0; i < n; i++ {
		b.Set(i, 0, 1)
	}
	return b
}

// strengthGraph returns the strongly connected neighbours of every row.
func strengthGraph(a *sparse.CSR) [][]int {
	d := a.Diag()
	out := make([][]int, a.NRows)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j == i {
				continue
			}
			if math.Abs(vals[k]) > theta*math.Sqrt(math.Abs(d[i]*d[j])) {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// aggregate groups the rows into aggregates with the standard two-pass
// greedy scheme; returns agg[i] in [0, nAgg).
func aggregate(strong [][]int) ([]int, int) {
	n := len(strong)
	agg := make([]int, n)
	for i := range agg {
		agg[i] = -1
	}
	nAgg := 0
	// Pass 1: roots with fully unaggregated strong neighbourhoods.
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		free := true
		for _, j := range strong[i] {
			if agg[j] >= 0 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		agg[i] = nAgg
		for _, j := range strong[i] {
			agg[j] = nAgg
		}
		nAgg++
	}
	// Pass 2: attach stragglers to a neighbouring aggregate.
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		for _, j := range strong[i] {
			if agg[j] >= 0 {
				agg[i] = agg[j]
				break
			}
		}
	}
	// Pass 3: isolated rows become singleton aggregates.
	for i := 0; i < n; i++ {
		if agg[i] < 0 {
			agg[i] = nAgg
			nAgg++
		}
	}
	return agg, nAgg
}

// tentative builds the tentative prolongator P0 and the coarse near-null
// space: per aggregate, the local rows of B are orthonormalized (modified
// Gram-Schmidt with column dropping); Q becomes the P0 block, R the coarse
// B rows.
func tentative(agg []int, nAgg int, b *la.Dense) (*sparse.CSR, *la.Dense, error) {
	n := b.Rows
	k := b.Cols
	members := make([][]int, nAgg)
	for i, a := range agg {
		members[a] = append(members[a], i)
	}
	// Per-aggregate thin QR of the local near-null space block: B_S = Q·R
	// with Q (m×r) orthonormal and R (r×k); dependent columns are dropped
	// (their projection coefficients still land in R).
	type qrResult struct {
		q [][]float64 // r columns of length m
		r [][]float64 // r rows of length k
	}
	results := make([]qrResult, nAgg)
	offsets := make([]int, nAgg+1)
	for a := 0; a < nAgg; a++ {
		rows := members[a]
		m := len(rows)
		var res qrResult
		for c := 0; c < k; c++ {
			col := make([]float64, m)
			for i, rIdx := range rows {
				col[i] = b.At(rIdx, c)
			}
			norm0 := la.Norm2(col)
			for qi, q := range res.q {
				dot := la.Dot(q, col)
				res.r[qi][c] = dot
				la.Axpy(-dot, q, col)
			}
			nrm := la.Norm2(col)
			if nrm <= 1e-10*(1+norm0) {
				continue // dependent on this aggregate: column dropped
			}
			la.Scal(1/nrm, col)
			row := make([]float64, k)
			row[c] = nrm
			res.q = append(res.q, col)
			res.r = append(res.r, row)
		}
		results[a] = res
		offsets[a+1] = offsets[a] + len(res.q)
	}
	nc := offsets[nAgg]
	if nc == 0 {
		return nil, nil, errors.New("aggregation: empty coarse space")
	}
	pb := sparse.NewBuilder(n, nc)
	bc := la.NewDense(nc, k)
	for a := 0; a < nAgg; a++ {
		res := results[a]
		rows := members[a]
		for qi, q := range res.q {
			cdof := offsets[a] + qi
			for i, rIdx := range rows {
				if q[i] != 0 {
					pb.Add(rIdx, cdof, q[i])
				}
			}
			for c := 0; c < k; c++ {
				bc.Set(cdof, c, res.r[qi][c])
			}
		}
	}
	return pb.Build(), bc, nil
}

// smoothProlongator returns P = (I - omega/λmax · D⁻¹A)·P0.
func smoothProlongator(a *sparse.CSR, p0 *sparse.CSR) *sparse.CSR {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v != 0 {
			inv[i] = 1 / v
		}
	}
	// λmax(D⁻¹A) by power iteration.
	n := a.NRows
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = 1
		if i%2 == 1 {
			v[i] = -1
		}
	}
	lmax := 1.0
	for it := 0; it < 15; it++ {
		a.MulVec(v, w)
		for i := range w {
			w[i] *= inv[i]
		}
		nrm := la.Norm2(w)
		if nrm == 0 {
			break
		}
		lmax = nrm
		la.Scal(1/nrm, w)
		copy(v, w)
	}
	scale := omega / (1.05 * lmax)
	// S = D⁻¹A·P0 (row-scaled product), P = P0 - scale·S.
	s := a.Mul(p0)
	pb := sparse.NewBuilder(p0.NRows, p0.NCols)
	for i := 0; i < p0.NRows; i++ {
		cols, vals := p0.Row(i)
		for kk, j := range cols {
			pb.Add(i, j, vals[kk])
		}
		cols, vals = s.Row(i)
		for kk, j := range cols {
			pb.Add(i, j, -scale*inv[i]*vals[kk])
		}
	}
	return pb.Build()
}

// BuildRestrictions constructs the smoothed aggregation restriction chain
// for operator a with near-null space b (rows = dofs of a, columns = modes).
// The result plugs directly into multigrid.Build.
func BuildRestrictions(a *sparse.CSR, b *la.Dense) ([]*sparse.CSR, error) {
	if b.Rows != a.NRows {
		return nil, fmt.Errorf("aggregation: near-null space has %d rows for a %d-dof operator", b.Rows, a.NRows)
	}
	var rs []*sparse.CSR
	cur := a
	curB := b
	for level := 1; level < maxLevels; level++ {
		if cur.NRows <= minCoarse {
			break
		}
		strong := strengthGraph(cur)
		agg, nAgg := aggregate(strong)
		if nAgg >= cur.NRows {
			break // no coarsening possible
		}
		p0, bc, err := tentative(agg, nAgg, curB)
		if err != nil {
			break
		}
		r := smoothProlongator(cur, p0).Transpose()
		rs = append(rs, r)
		cur = sparse.Galerkin(r, cur)
		curB = bc
	}
	if len(rs) == 0 {
		return nil, errors.New("aggregation: built no coarse levels")
	}
	return rs, nil
}
