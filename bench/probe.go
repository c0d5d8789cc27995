package main

import (
	"runtime"
	"time"

	"prometheus/internal/multigrid"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// timeCall returns the best wall time of fn over repeated calls: at least
// five, and as many as fit in about 50 ms, at most 50. The best, not the
// median: on a shared host a memory-bound kernel runs at half speed for
// tenths of a second at a time, and the fastest call is the one number
// that repeats.
func timeCall(fn func()) time.Duration {
	best := time.Duration(1 << 62)
	var total time.Duration
	for n := 0; n < 5 || (total < 50*time.Millisecond && n < 50); n++ {
		t0 := time.Now()
		fn()
		e := time.Since(t0)
		total += e
		if e < best {
			best = e
		}
	}
	return best
}

// fill writes a fixed non-trivial pattern, so kernels run on the same
// numbers every time.
func fill(v []float64) {
	for i := range v {
		v[i] = float64(i%7) - 3
	}
}

// levelKernels is one level's kernel times, each one call on scratch
// vectors: a smoother sweep, the operator product, the restriction into
// the level and the prolongation out of it (zero on level 0), and the
// direct solve (coarsest level only).
type levelKernels struct {
	smooth, mulvec, restrict, prolong, direct time.Duration
}

// timeLevels times every level's kernels once the solve is over.
func timeLevels(mg *multigrid.MG) []levelKernels {
	out := make([]levelKernels, len(mg.Levels))
	for l, lvl := range mg.Levels {
		n := lvl.A.Rows()
		x, b := make([]float64, n), make([]float64, n)
		fill(b)
		if lvl.Smoother != nil {
			out[l].smooth = timeCall(func() {
				for i := range x {
					x[i] = 0
				}
				lvl.Smoother.Smooth(x, b, 1)
			})
		}
		out[l].mulvec = timeCall(func() { lvl.A.MulVec(b, x) })
		if lvl.R != nil {
			fineV := make([]float64, lvl.R.Cols())
			fill(fineV)
			out[l].restrict = timeCall(func() { lvl.R.MulVec(fineV, x) })
			out[l].prolong = timeCall(func() { lvl.P.MulVec(b, fineV) })
		}
		if lvl.Direct != nil {
			out[l].direct = timeCall(func() { lvl.Direct.Solve(b, x) })
		}
	}
	return out
}

// cycleModel prices one preconditioner application from the per-level
// kernel times and the number of times the cycle runs each kernel. It
// returns the modelled time per level and the smoothing part of the
// total; nil for a W-cycle, which no workload uses.
//
// In one FMG application level j (above the coarsest) is visited by the
// V-cycles started on levels 0..j, so j+1 times; each visit smooths
// before and after and forms one residual. The transfers between levels
// j-1 and j run once per visit of level j-1 plus once for the FMG
// restriction chain and prolongation. The coarsest level is solved once
// per V-cycle and once by FMG itself.
func cycleModel(mg *multigrid.MG, k []levelKernels) (perLevel []time.Duration, smoothing time.Duration) {
	n := len(mg.Levels)
	visits := make([]int, n)
	switch mg.Opts.Cycle {
	case multigrid.FMG:
		for j := range visits {
			visits[j] = j + 1
		}
	case multigrid.VCycle:
		for j := range visits {
			visits[j] = 1
		}
	default:
		return nil, 0
	}
	sweeps := mg.Opts.PreSmooth + mg.Opts.PostSmooth
	perLevel = make([]time.Duration, n)
	for j := 0; j < n; j++ {
		v := time.Duration(visits[j])
		if j == n-1 {
			direct := visits[j]
			if mg.Opts.Cycle == multigrid.FMG {
				direct = n
			}
			if n == 1 {
				direct = 1
			}
			perLevel[j] += time.Duration(direct) * k[j].direct
		} else {
			sm := v * time.Duration(sweeps) * k[j].smooth
			smoothing += sm
			perLevel[j] += sm + v*k[j].mulvec
		}
		if j > 0 {
			transfers := time.Duration(visits[j-1])
			if mg.Opts.Cycle == multigrid.FMG {
				transfers++
			}
			perLevel[j] += transfers * (k[j].restrict + k[j].prolong)
		}
	}
	return perLevel, smoothing
}

// nopKernel is an empty row-range kernel: dispatching it measures the
// pool's hand-off alone.
type nopKernel struct{}

// MulVecRange implements pool.Kernel.
func (nopKernel) MulVecRange(x, y []float64, lo, hi int) {}

// probeLayers measures, after the timed reps and on the last rep's
// hierarchy, what cannot be seen from outside a solve: the kernels level
// by level, both assembled storages and the matrix-free operator on the
// same fine system, one Galerkin product, the coarsest solve and the
// worker pool. applyMSPerCall is the measured preconditioner time the
// kernel model is checked against.
func probeLayers(a *artifacts, rec *recorder, applyMSPerCall float64) {
	// Collect the reps' garbage first, so no collection runs beside the
	// kernels being timed.
	runtime.GC()
	k := timeLevels(a.mg)
	if perLevel, smoothing := cycleModel(a.mg, k); perLevel != nil {
		var total time.Duration
		for _, d := range perLevel {
			total += d
		}
		rec.set("multigrid.fine_level_share", perLevel[0].Seconds()/total.Seconds())
		rec.set("multigrid.coarse_levels_share", 1-perLevel[0].Seconds()/total.Seconds())
		rec.set("multigrid.kernel_model_ratio", total.Seconds()*1e3/applyMSPerCall)
		rec.set("smooth.share_of_apply", smoothing.Seconds()/total.Seconds())
	}
	rec.set("smooth.fine_sweep_ms", k[0].smooth.Seconds()*1e3)
	rec.set("direct.coarse_solve_us", k[len(k)-1].direct.Seconds()*1e6)

	// The fine operator in the storage the solve used, then the same
	// matrix in each assembled storage so the two can be compared on one
	// system. Bytes are computed from the arrays: the matrix once, x read
	// and y written once.
	fine := a.fine
	nnz := float64(fine.NNZ())
	rec.set("sparse.spmv_ns_per_nnz", float64(k[0].mulvec)/nnz)
	bytes := float64(sparse.StorageBytes(fine)) + 8*float64(fine.Rows()+fine.Cols())
	rec.set("sparse.spmv_gbps", bytes/k[0].mulvec.Seconds()/1e9)
	rec.set("sparse.fine_bytes_per_dof", float64(sparse.StorageBytes(fine))/float64(fine.Rows()))
	x, y := make([]float64, fine.Cols()), make([]float64, fine.Rows())
	fill(x)
	csr := sparse.AsCSR(fine)
	rec.set("sparse.spmv_csr_ns_per_nnz", float64(timeCall(func() { csr.MulVec(x, y) }))/float64(csr.NNZ()))
	if blocked := sparse.AutoBlock(csr, 3); sparse.DispatchAlign(blocked) > 1 {
		rec.set("sparse.spmv_bsr_ns_per_nnz", float64(timeCall(func() { blocked.MulVec(x, y) }))/float64(csr.NNZ()))
	}

	if len(a.mg.Levels) > 1 {
		r := a.mg.Levels[1].R
		t0 := time.Now()
		if sparse.DispatchAlign(fine) > 1 {
			sparse.GalerkinBSR(r, fine)
		} else {
			sparse.Galerkin(r, csr)
		}
		rec.set("sparse.galerkin_s", time.Since(t0).Seconds())
	}

	t0 := time.Now()
	ebe, _, err := a.solver.MatrixFreeSystem(a.problem, a.load)
	if err != nil {
		rec.fail(err)
		return
	}
	rec.set("fem.ebe_setup_s", time.Since(t0).Seconds())
	rec.set("fem.ebe_apply_ns_per_dof", float64(timeCall(func() { ebe.MulVec(x, y) }))/float64(ebe.Rows()))

	// A parallel row on one core would measure dispatch overhead and call
	// it scaling: pool.* is refused there (0 on the result line, null in a
	// run set), not recorded.
	par, ok := fine.(sparse.ParallelOperator)
	if runtime.GOMAXPROCS(0) < 2 || !ok {
		return
	}
	p := pool.New(2)
	defer p.Close()
	const dispatches = 2000
	t0 = time.Now()
	for i := 0; i < dispatches; i++ {
		p.Dispatch(nopKernel{}, x, y, 2, 1)
	}
	rec.set("pool.dispatch_us", time.Since(t0).Seconds()*1e6/dispatches)
	serial := timeCall(func() { fine.MulVec(x, y) })
	parallel := timeCall(func() { par.MulVecParallel(p, x, y) })
	rec.set("pool.spmv_speedup_2w", serial.Seconds()/parallel.Seconds())
}

// probeMachine records the ground truth the kernel rates are read
// against: cores, the last-level cache /sys reports, the triad array size
// used (arr, or the rule of triadArrayBytes when zero), and triad bandwidth
// on one core and on all.
func probeMachine(rec *recorder, arr int64) {
	llc := llcBytes()
	if arr == 0 {
		arr = triadArrayBytes(llc)
	}
	rec.set("machine.cores", float64(runtime.NumCPU()))
	rec.set("machine.llc_mb", float64(llc)/(1<<20))
	rec.set("machine.triad_array_mb", float64(arr)/(1<<20))
	one, all := triadGBps(runtime.GOMAXPROCS(0), arr)
	rec.set("machine.triad_1t_gbps", one)
	rec.set("machine.triad_gbps", all)
}
