package sparse

import "fmt"

// This file implements the Sweeper capability for the two assembled
// storage formats: the ordered SOR sweep each storage provides to the
// Gauss-Seidel smoother. The kernels moved here verbatim from
// internal/smooth when the Operator interface was split into core apply
// plus capabilities — the loop bodies are unchanged so smoother iterates
// stay bitwise identical across the move. On scalar storage the sweep
// updates one unknown at a time; on blocked storage it runs the paper's
// nodal variant, solving each node's BxB diagonal block exactly per visit
// with inverses the smoother precomputes from DiagBlocks.

// Compile-time capability conformance.
var (
	_ Sweeper = (*CSR)(nil)
	_ Sweeper = (*BSR)(nil)
)

// SORSweep implements Sweeper. Scalar CSR ignores invBlk and scratch.
func (a *CSR) SORSweep(x, b []float64, omega float64, backward bool, invBlk, scratch []float64) int64 {
	n := a.NRows
	for k := 0; k < n; k++ {
		i := k
		if backward {
			i = n - 1 - k
		}
		sum := b[i]
		diag := 0.0
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[lo:hi]
		vals := a.Val[lo:hi:hi]
		vals = vals[:len(cols)] // equal lengths let the compiler drop bounds checks
		for p, j := range cols {
			if j == i {
				diag = vals[p]
				continue
			}
			sum -= vals[p] * x[j]
		}
		if diag == 0 {
			panic(fmt.Sprintf("sparse: SORSweep: zero diagonal at row %d", i))
		}
		x[i] += omega * (sum/diag - x[i])
	}
	return a.MulVecFlops() + 2*int64(n)
}

// SORSweep implements Sweeper: the node-block sweep. For each node the
// off-block row contribution is accumulated into scratch, then invBlk (the
// precomputed inverse of the BxB diagonal block) maps it to the exact
// block solution.
func (a *BSR) SORSweep(x, b []float64, omega float64, backward bool, invBlk, scratch []float64) int64 {
	if a.B == 3 {
		return a.sorSweep3(x, b, omega, backward, invBlk)
	}
	nb := a.NBRows
	bs := a.B
	bb := bs * bs
	sum := scratch[:bs]
	for k := 0; k < nb; k++ {
		ib := k
		if backward {
			ib = nb - 1 - k
		}
		br := b[ib*bs : ib*bs+bs : ib*bs+bs]
		for d := range sum {
			sum[d] = br[d]
		}
		for p := a.RowPtr[ib]; p < a.RowPtr[ib+1]; p++ {
			jb := a.ColIdx[p]
			if jb == ib {
				continue
			}
			v := a.Val[p*bb : (p+1)*bb : (p+1)*bb]
			xr := x[jb*bs : jb*bs+bs : jb*bs+bs]
			for d := 0; d < bs; d++ {
				acc := sum[d]
				row := v[d*bs : d*bs+bs]
				for c, vv := range row {
					acc -= vv * xr[c]
				}
				sum[d] = acc
			}
		}
		inv := invBlk[ib*bb : (ib+1)*bb : (ib+1)*bb]
		xr := x[ib*bs : ib*bs+bs : ib*bs+bs]
		for d := 0; d < bs; d++ {
			z := 0.0
			row := inv[d*bs : d*bs+bs]
			for c, vv := range row {
				z += vv * sum[c]
			}
			xr[d] += omega * (z - xr[d])
		}
	}
	return a.MulVecFlops() + int64(nb)*int64(2*bb+3*bs)
}

// sorSweep3 is the register-blocked 3x3 specialization: the three row
// accumulators live in registers across the block row, and the
// accumulation order matches the generic kernel exactly (entries left to
// right within each block row), so both paths produce identical iterates.
func (a *BSR) sorSweep3(x, b []float64, omega float64, backward bool, invBlk []float64) int64 {
	nb := a.NBRows
	for k := 0; k < nb; k++ {
		ib := k
		if backward {
			ib = nb - 1 - k
		}
		s0, s1, s2 := b[3*ib], b[3*ib+1], b[3*ib+2]
		p, q := a.RowPtr[ib], a.RowPtr[ib+1]
		cols := a.ColIdx[p:q]
		vals := a.Val[9*p : 9*q : 9*q]
		vals = vals[:9*len(cols)]
		for kk, jb := range cols {
			if jb == ib {
				continue
			}
			v := vals[9*kk : 9*kk+9 : 9*kk+9]
			x0, x1, x2 := x[3*jb], x[3*jb+1], x[3*jb+2]
			s0 -= v[0] * x0
			s0 -= v[1] * x1
			s0 -= v[2] * x2
			s1 -= v[3] * x0
			s1 -= v[4] * x1
			s1 -= v[5] * x2
			s2 -= v[6] * x0
			s2 -= v[7] * x1
			s2 -= v[8] * x2
		}
		inv := invBlk[9*ib : 9*ib+9 : 9*ib+9]
		z0 := inv[0] * s0
		z0 += inv[1] * s1
		z0 += inv[2] * s2
		z1 := inv[3] * s0
		z1 += inv[4] * s1
		z1 += inv[5] * s2
		z2 := inv[6] * s0
		z2 += inv[7] * s1
		z2 += inv[8] * s2
		x[3*ib] += omega * (z0 - x[3*ib])
		x[3*ib+1] += omega * (z1 - x[3*ib+1])
		x[3*ib+2] += omega * (z2 - x[3*ib+2])
	}
	return a.MulVecFlops() + int64(nb)*int64(2*9+3*3)
}
