package sparse

import (
	"math"
	"math/rand"
	"testing"

	"prometheus/internal/pool"
)

// randomCSR builds a random sparse square matrix with a guaranteed
// diagonal, nb*b scalar rows, blocked at size b (so it re-blocks to BSR
// without fill).
func randomBlocked(t *testing.T, nb, b int, rng *rand.Rand) (*CSR, *BSR) {
	t.Helper()
	bb := NewBlockBuilder(nb, nb, b)
	blk := make([]float64, b*b)
	for ib := 0; ib < nb; ib++ {
		for _, jb := range []int{ib, rng.Intn(nb), rng.Intn(nb)} {
			for k := range blk {
				blk[k] = rng.NormFloat64()
			}
			if jb == ib {
				for d := 0; d < b; d++ {
					blk[d*b+d] += float64(b * b)
				}
			}
			bb.AddBlock(ib, jb, blk)
		}
	}
	bsr := bb.Build()
	return bsr.ToCSR(), bsr
}

// TestMulVecParallelBitwise locks in the acceptance criterion: the
// pool-partitioned product, and the pool-partitioned fused residual, equal
// the serial ones bit for bit, on both storages, for every pool size.
func TestMulVecParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	csr, bsr := randomBlocked(t, 67, 3, rng)
	n := csr.NRows
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	wantC := make([]float64, n)
	csr.MulVec(x, wantC)
	wantB := make([]float64, n)
	bsr.MulVec(x, wantB)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	wantR := make([]float64, n)
	csr.Residual(b, x, wantR)

	for _, nw := range []int{1, 2, 3, 4, 8} {
		p := pool.New(nw)
		got := make([]float64, n)
		csr.MulVecParallel(p, x, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantC[i]) {
				t.Fatalf("CSR nw=%d row %d: %v != %v", nw, i, got[i], wantC[i])
			}
		}
		bsr.MulVecParallel(p, x, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantB[i]) {
				t.Fatalf("BSR nw=%d row %d: %v != %v", nw, i, got[i], wantB[i])
			}
		}
		// The blocked matrix is the scalar one regrouped, so one
		// reference serves both residuals.
		for name, op := range map[string]pool.ResidualKernel{"CSR": csr, "BSR": bsr} {
			p.DispatchResidual(op, b, x, got, n, DispatchAlign(op.(Operator)))
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(wantR[i]) {
					t.Fatalf("%s residual nw=%d row %d: %v != %v", name, nw, i, got[i], wantR[i])
				}
			}
		}
		p.Close()
	}
}

// TestMulVecParallelZeroAlloc locks in the steady-state zero-allocation
// satellite for the parallel SpMV on both storages.
func TestMulVecParallelZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	csr, bsr := randomBlocked(t, 64, 3, rng)
	n := csr.NRows
	x := make([]float64, n)
	y := make([]float64, n)
	p := pool.New(4)
	defer p.Close()
	p.Sanitizer().Disable() // promdebug builds: measure the inert path
	csr.MulVecParallel(p, x, y)
	if a := testing.AllocsPerRun(50, func() { csr.MulVecParallel(p, x, y) }); a != 0 {
		t.Fatalf("CSR.MulVecParallel allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { bsr.MulVecParallel(p, x, y) }); a != 0 {
		t.Fatalf("BSR.MulVecParallel allocates %.1f per call, want 0", a)
	}
}

func TestDispatchAlign(t *testing.T) {
	csr, bsr := randomBlocked(t, 8, 3, rand.New(rand.NewSource(1)))
	if got := DispatchAlign(csr); got != 1 {
		t.Fatalf("DispatchAlign(CSR) = %d, want 1", got)
	}
	if got := DispatchAlign(bsr); got != 3 {
		t.Fatalf("DispatchAlign(BSR) = %d, want 3", got)
	}
}
