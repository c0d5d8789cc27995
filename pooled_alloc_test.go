package prometheus

import (
	"runtime"
	"testing"

	"prometheus/internal/check"
	"prometheus/internal/krylov"
	"prometheus/internal/multigrid"
	"prometheus/internal/obs"
)

// mallocsPerRun is the pooled path's testing.AllocsPerRun. That function
// wraps GOMAXPROCS(1) around its measurement, and on one core the shared
// worker set has no helpers, so the package-level AllocsPerRun tests in
// sparse, smooth and multigrid measure the serial path by construction.
// This one leaves the helpers running, which lets in the runtime's own
// allocations while f runs: a sudog for a helper that parks because
// another process took its core, a collection cycle's bookkeeping (14 and
// 6 of 300 FPCG calls had one or two beside `go test`'s other binaries).
// Those only ever add, so the figure is the fewest mallocs any one of runs
// calls made: code that allocates per call shows in every one of them.
func mallocsPerRun(runs int, f func()) uint64 {
	f() // warm up: start the helpers, grow every lazily sized buffer
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs && least != 0; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestPooledPathZeroAlloc locks in the zero-allocation guarantees of the
// solve on the path the default configuration takes on two cores or more:
// operator products and fused residuals, the block-Jacobi solves inside the
// CG smoother, a whole preconditioner application and an FPCG iteration,
// all with their rows and blocks cut over the shared worker set — on the
// scalar-CSR fine level of the spheres problem and the 3x3-BSR one of the
// cube, with obs recording so the test can see the dispatches happen.
func TestPooledPathZeroAlloc(t *testing.T) {
	if check.Enabled || testing.Short() {
		t.Skip("promdebug assertions box their arguments and the race runtime (the -short jobs) allocates on its own: the release shape is what is measured")
	}
	atLeastTwoProcs(t)
	obs.EnableWith(obs.Config{RingCap: 1 << 12})
	defer obs.Disable()
	for name, sys := range map[string]reducedSystem{
		"spheres": spheresSystem(t, false, multigrid.Options{}),
		"cube":    cubeSystem(t, false, multigrid.Options{}),
	} {
		mg := sys.hierarchy(t)
		fine := mg.Levels[0].A
		n := fine.Rows()
		x, y, b := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], b[i] = float64(i%7)-3, float64(i%5)-2
		}
		inner := mg.Levels[0].Smoother.Inner
		before := obs.Snapshot().Counter("pool.dispatch.pooled")
		for _, c := range []struct {
			what string
			f    func()
		}{
			{"MulVec", func() { fine.MulVec(x, y) }},
			{"Residual", func() { fine.Residual(b, x, y) }},
			{"block-Jacobi Solve", func() { inner.Solve(b, y) }},
			{"Smoother.Smooth", func() { mg.Levels[0].Smoother.Smooth(y, b, 1) }},
			{"MG.Apply", func() { mg.Apply(b, y) }},
		} {
			if got := mallocsPerRun(20, c.f); got != 0 {
				t.Errorf("%s (%T fine level): %s allocates %d times per pooled call, want 0", name, fine, c.what, got)
			}
		}
		// FPCG allocates its vectors per call and nothing per iteration:
		// a solve stopped after 15 iterations costs what one stopped after
		// 9 costs (both residual histories end in a 16-entry array).
		fpcg := func(iters int) func() {
			return func() {
				for i := range y {
					y[i] = 0
				}
				krylov.FPCG(sys.kred, b, y, mg, 1e-30, iters)
			}
		}
		if short, long := mallocsPerRun(20, fpcg(9)), mallocsPerRun(20, fpcg(15)); long != short {
			t.Errorf("%s: FPCG allocates %d times in 9 iterations and %d in 15", name, short, long)
		}
		if pooled := obs.Snapshot().Counter("pool.dispatch.pooled") - before; pooled < 500 {
			t.Errorf("%s: only %d dispatches went to the worker set; the fixture is below pool.Grain", name, pooled)
		}
	}
}
