// Benchmarks regenerating every table and figure of the paper's evaluation
// (section 7), plus kernel benchmarks for the substrates. Each experiment
// bench reports its headline quantities as custom metrics (iterations,
// efficiency, plastic fraction, ...) so `go test -bench=.` reproduces the
// paper's numbers alongside Go's timing output. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for the recorded comparison.
package prometheus

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"prometheus/internal/aggregation"
	"prometheus/internal/core"
	"prometheus/internal/delaunay"
	"prometheus/internal/experiments"
	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/krylov"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/multigrid"
	"prometheus/internal/obs"
	"prometheus/internal/par"
	"prometheus/internal/perf"
	"prometheus/internal/problems"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
	"prometheus/internal/topo"
)

// BenchmarkTable1Materials exercises the Table 1 constitutive updates: the
// J2 radial return with kinematic hardening and the Neo-Hookean response.
func BenchmarkTable1Materials(b *testing.B) {
	hard := material.J2Plasticity{E: 1, Nu: 0.3, SigmaY: 1e-3, H: 0.002}
	soft := material.NeoHookean{E: 1e-4, Nu: 0.49}
	eps := material.Voigt{0.001, -0.0003, -0.0003, 0.004, 0.001, -0.002}
	var st material.State
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, st = hard.Update(st, eps)
		_, _, _ = soft.Update(material.State{}, eps)
	}
}

// BenchmarkTable2Iterations runs the first linear solve of the scaled
// model problem (Table 2's iteration column) and reports the iteration
// count and modeled aggregate Mflop rate.
func BenchmarkTable2Iterations(b *testing.B) {
	spec := experiments.Series(1)[0]
	var last *experiments.LinearRun
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunLinear(spec, perf.PaperIBM(), multigrid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Iters), "PCG-iters")
	b.ReportMetric(last.ModelMflops, "model-Mflop/s")
	b.ReportMetric(float64(last.Dof), "dof")
}

// BenchmarkFig7Hierarchy builds the coarse grid hierarchy of the model
// problem (the Figure 7 artifact) and reports the level count and total
// vertex reduction.
func BenchmarkFig7Hierarchy(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	var h *core.Hierarchy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		h, err = core.Coarsen(s.Mesh, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	counts, _ := h.VertexReduction()
	b.ReportMetric(float64(h.NumLevels()), "levels")
	b.ReportMetric(float64(counts[0])/float64(counts[len(counts)-1]), "total-reduction")
}

// BenchmarkFig9MeshGen generates the concentric-spheres model problem
// (Figure 9) at the paper's 17-layer geometry.
func BenchmarkFig9MeshGen(b *testing.B) {
	var s *problems.Spheres
	for i := 0; i < b.N; i++ {
		s = problems.NewSpheresConfig(problems.SpheresConfig{
			Layers: 17, ElemsPerLayer: 1, CoreElems: 3, OuterElems: 3,
		})
	}
	b.ReportMetric(float64(s.Mesh.NumDOF()), "dof")
	b.ReportMetric(100*s.HardFraction(), "hard-%")
}

// BenchmarkFig10Solve measures the phase content of Figure 10: one full
// linear-solve pipeline (partition, mesh setup, fine-grid assembly, matrix
// setup, solve) on the base size, reporting per-phase milliseconds.
func BenchmarkFig10Solve(b *testing.B) {
	spec := experiments.Series(1)[0]
	var last *experiments.LinearRun
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunLinear(spec, perf.PaperIBM(), multigrid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, phase := range []string{"partition", "mesh setup", "fine grid", "matrix setup", "solve"} {
		unit := strings.ReplaceAll(phase, " ", "-") + "-ms"
		b.ReportMetric(float64(last.Wall[phase].Microseconds())/1000, unit)
	}
}

// BenchmarkFig11Efficiency runs the two smallest scaled sizes and reports
// the Figure 11 decomposition: flop scale efficiency and communication
// efficiency of the larger run against the base.
func BenchmarkFig11Efficiency(b *testing.B) {
	specs := experiments.Series(2)
	var e perf.Efficiencies
	for i := 0; i < b.N; i++ {
		base, err := experiments.RunLinear(specs[0], perf.PaperIBM(), multigrid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run, err := experiments.RunLinear(specs[1], perf.PaperIBM(), multigrid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		e = perf.Decompose(base.Iters, run.Iters, base.SolveFlops, run.SolveFlops,
			base.Free, run.Free, base.Spec.Ranks, run.Spec.Ranks,
			base.RatePerProc(), run.RatePerProc(), run.LoadBalance())
	}
	b.ReportMetric(e.EFs, "eFs")
	b.ReportMetric(e.Ec, "ec")
	b.ReportMetric(e.EIs, "eIs")
	b.ReportMetric(e.Load, "load-bal")
}

// BenchmarkFig12Components reports the Figure 12 component efficiencies
// (paper normalization) between the two smallest sizes.
func BenchmarkFig12Components(b *testing.B) {
	specs := experiments.Series(2)
	var solveEff, setupEff float64
	for i := 0; i < b.N; i++ {
		base, err := experiments.RunLinear(specs[0], perf.PaperIBM(), multigrid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run, err := experiments.RunLinear(specs[1], perf.PaperIBM(), multigrid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Work scaling (1.0 = O(N)); the wall clocks are single-process.
		norm := float64(run.Free) / float64(base.Free)
		solveEff = norm * float64(base.Wall["solve"]) / float64(run.Wall["solve"])
		setupEff = norm * float64(base.Wall["matrix setup"]) / float64(run.Wall["matrix setup"])
	}
	b.ReportMetric(solveEff, "solve-eff")
	b.ReportMetric(setupEff, "matrix-setup-eff")
}

// BenchmarkFig13Nonlinear runs a reduced nonlinear crush (Figure 13) and
// reports the final plastic fraction and iteration totals.
func BenchmarkFig13Nonlinear(b *testing.B) {
	spec := experiments.SizeSpec{
		Name: "bench",
		Cfg:  problems.SpheresConfig{Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2},
	}
	var r *experiments.NonlinearRun
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunNonlinear(spec, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.Stats.Steps[len(r.Stats.Steps)-1].PlasticFrac, "final-plastic-%")
	b.ReportMetric(float64(r.Stats.TotalNewton), "newton-iters")
	b.ReportMetric(float64(r.Stats.TotalPCG), "PCG-iters")
	b.ReportMetric(float64(r.Stats.FirstSolveIters), "first-solve-iters")
}

// BenchmarkFig4ThinBody measures the Figures 4-6 mechanism: MIS with the
// modified graph on a thin slab, reporting face coverage.
func BenchmarkFig4ThinBody(b *testing.B) {
	m := problems.ThinSlab(12, 12, 0.35)
	facets := m.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	faceID, _ := topo.IdentifyFaces(facets, adj, topo.DefaultTOL)
	cls := topo.Classify(m.NumVerts(), facets, faceID)
	g := m.NodeGraph()
	var top, bottom int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg := cls.ModifiedGraph(g)
		order := graph.RankedOrder(cls.Rank, graph.NaturalOrder(g.N))
		mis := graph.MIS(mg, order, cls.Rank, cls.Immortal())
		top, bottom = 0, 0
		for _, v := range mis {
			if m.Coords[v].Z > 0.34 {
				top++
			}
			if m.Coords[v].Z < 0.01 {
				bottom++
			}
		}
	}
	b.ReportMetric(float64(top), "top-verts")
	b.ReportMetric(float64(bottom), "bottom-verts")
}

// BenchmarkMISOrdering is the section 4.7 ablation: natural vs random
// ordering MIS sizes on a uniform hexahedral node graph.
func BenchmarkMISOrdering(b *testing.B) {
	m := mesh.StructuredHex(10, 10, 10, 1, 1, 1, nil)
	g := m.NodeGraph()
	var nat, rnd int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nat = len(graph.MIS(g, graph.NaturalOrder(g.N), nil, nil))
		rnd = len(graph.MIS(g, graph.RandomOrder(g.N, 7), nil, nil))
	}
	b.ReportMetric(float64(nat)/float64(g.N), "natural-ratio")
	b.ReportMetric(float64(rnd)/float64(g.N), "random-ratio")
}

// BenchmarkParallelMIS runs the section 4.2 parallel MIS on 8 simulated
// ranks.
func BenchmarkParallelMIS(b *testing.B) {
	m := mesh.StructuredHex(10, 10, 10, 1, 1, 1, nil)
	g := m.NodeGraph()
	owner := graph.RCB(m.Coords, 8)
	order := graph.NaturalOrder(g.N)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis := par.ParallelMIS(par.NewComm(8), g, owner, order, nil, nil)
		size = len(mis)
	}
	b.ReportMetric(float64(size), "MIS-size")
}

// BenchmarkHeadlineEfficiency reports the section 7 headline: the modeled
// flop-rate parallel efficiency at the largest bench size vs the base
// (paper: ~60%).
func BenchmarkHeadlineEfficiency(b *testing.B) {
	specs := experiments.Series(2)
	var eff float64
	for i := 0; i < b.N; i++ {
		base, err := experiments.RunLinear(specs[0], perf.PaperIBM(), multigrid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last, err := experiments.RunLinear(specs[len(specs)-1], perf.PaperIBM(), multigrid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eff = last.RatePerProc() / base.RatePerProc()
	}
	b.ReportMetric(100*eff, "parallel-eff-%")
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationCycle compares FMG against V-cycle preconditioning.
func BenchmarkAblationCycle(b *testing.B) {
	for _, bc := range []struct {
		name string
		kind multigrid.CycleKind
	}{{"FMG", multigrid.FMG}, {"VCycle", multigrid.VCycle}} {
		b.Run(bc.name, func(b *testing.B) {
			spec := experiments.Series(1)[0]
			var last *experiments.LinearRun
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunLinear(spec, perf.PaperIBM(), multigrid.Options{Cycle: bc.kind})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.Iters), "PCG-iters")
		})
	}
}

// --- Substrate kernel benches ---

// BenchmarkSpMV measures the sparse matrix-vector kernel on the assembled
// fine operator (the paper reports 36 Mflop/s per PowerPC processor here).
func BenchmarkSpMV(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	p := fem.NewProblem(s.Mesh, s.Models, true)
	k, _, err := p.AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, k.NCols)
	y := make([]float64, k.NRows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MulVec(x, y)
	}
	b.SetBytes(int64(12 * k.NNZ())) // 8B value + 4B index per entry
	b.ReportMetric(float64(k.MulVecFlops())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
}

// fineSmoother returns the smoother of the fine level of the hierarchy a
// Solver builds for the small spheres system (the 3k-dof tangent of
// BenchmarkPreconditioner), and a right-hand side for it.
func fineSmoother(tb testing.TB) (*smooth.CGSmoother, []float64) {
	tb.Helper()
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	solver, err := NewSolver(s.Mesh, s.Cons, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	k, _, err := NewProblem(s.Mesh, s.Models, true).AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		tb.Fatal(err)
	}
	kred, _ := solver.ReduceSystem(k, make([]float64, s.Mesh.NumDOF()))
	mg, err := solver.Preconditioner(kred)
	if err != nil {
		tb.Fatal(err)
	}
	rhs := make([]float64, kred.NRows)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	return mg.Levels[0].Smoother, rhs
}

// BenchmarkSmoother measures one smoothing step of the fine level's
// smoother — a CG iteration preconditioned by block Jacobi — on the small
// spheres system. Allocation counts are reported so the zero-alloc
// steady-state guarantee is visible in -benchmem output.
func BenchmarkSmoother(b *testing.B) {
	sm, rhs := fineSmoother(b)
	b.Run("CGSmoother", func(b *testing.B) {
		x := make([]float64, len(rhs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sm.Smooth(x, rhs, 1)
		}
	})
	// The same step with observability recording on, so -benchmem output
	// shows the span overhead (and its zero allocations) next to the
	// uninstrumented number.
	b.Run("CGSmoother/obs", func(b *testing.B) {
		obs.EnableWith(obs.Config{RingCap: 1 << 12})
		defer obs.Disable()
		x := make([]float64, len(rhs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sm.Smooth(x, rhs, 1)
		}
	})
}

// TestSmootherObsOverhead gates the cost of the observability spans on
// the smoother hot path: with recording enabled, a smoothing step of the
// fine level's smoother — the CG iteration with its block-Jacobi solves
// that every solve runs — may be at most 5% slower than with recording
// off. Off and on batches
// alternate, the order within a pair alternates too, and the verdict is
// read from the per-pair on/off ratios: the two batches of a pair run
// within milliseconds of each other, so a host whose core speed drifts
// from second to second slows both alike, and the middle of the sorted
// ratios discards the pairs a scheduler hiccup split. (Over 100 runs on a
// 2-vCPU guest the median of a Jacobi sweep stayed in 0.99-1.03, while the
// ratio of the two sides' fastest batches reached 1.22: one side can catch
// a fast moment of the host that the other never sees.)
//
// The step is gated twice. On one core it is the serial loop and the gate
// is the median. On the default path its residual, operator product and
// block solves are cut over the shared worker set — every dispatch of a
// batch must run there — and recording adds a pool.task span per helper
// per dispatch, the per-lane row counts and the dispatch counters; a step
// that wants both cores is timed by whatever else wants one (the other
// test binaries of `go test ./...`, for one), so there the gate is the
// lower end of the median's 99.9% confidence interval (order statistics
// 121 and 180 of 300 pairs; 0.99-1.02 alone on a 2-vCPU guest): it fails
// when the pairs show the overhead, not when they cannot tell.
func TestSmootherObsOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate skipped in -short mode and under the race detector")
	}
	sm, rhs := fineSmoother(t)
	x := make([]float64, len(rhs))

	const sweepsPerBatch = 10
	batch := func() time.Duration {
		// Every batch smooths from the same guess, so both sides do the
		// same arithmetic. Switching recording on resets every counter,
		// long enough for the shared set's helper to stop polling and park:
		// one untimed step, on either side, has it polling again when the
		// clock starts.
		clear(x)
		sm.Smooth(x, rhs, 1)
		t0 := time.Now()
		for i := 0; i < sweepsPerBatch; i++ {
			sm.Smooth(x, rhs, 1)
		}
		return time.Since(t0)
	}
	// ratios returns the sorted on/off ratios of the pairs and, of the pool
	// dispatches of the last on batch, how many ran on the shared worker
	// set and how many ran serially.
	ratios := func(pairs int) (rs []float64, pooled, serial int64) {
		// The first EnableWith allocates the trace ring; the ones in the loop
		// find it at the requested size and only reset counters, so no pair
		// times an allocation or the collection after it.
		cfg := obs.Config{RingCap: 1 << 16}
		obs.EnableWith(cfg)
		defer obs.Disable()
		sm.Smooth(x, rhs, 1) // warm caches before the first measurement
		rs = make([]float64, pairs)
		for i := range rs {
			// Even pairs run off then on, odd pairs on then off: whatever the
			// second batch of a pair inherits from the first lands on each
			// side equally often.
			var off, on time.Duration
			if i%2 == 0 {
				obs.Disable()
				off = batch()
				obs.EnableWith(cfg)
				on = batch()
			} else {
				obs.EnableWith(cfg)
				on = batch()
				obs.Disable()
				off = batch()
			}
			rs[i] = float64(on) / float64(off)
		}
		sort.Float64s(rs)
		// The last pair ran on then off, so the counters hold its on batch.
		snap := obs.Snapshot()
		return rs, snap.Counter("pool.dispatch.pooled"),
			snap.Counter("pool.dispatch.serial_grain") + snap.Counter("pool.dispatch.serial_busy")
	}
	t.Run("serial", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const pairs, mid = 100, 50
		rs, pooled, _ := ratios(pairs)
		t.Logf("smoothing step obs on/off: median %.4fx of %d pairs of %d steps (range %.3f-%.3f)",
			rs[mid], pairs, sweepsPerBatch, rs[0], rs[pairs-1])
		if pooled != 0 {
			t.Fatalf("%d dispatches of a batch ran on the shared worker set on one core", pooled)
		}
		if rs[mid] > 1.05 {
			t.Errorf("obs-enabled smoothing step is %.1f%% slower than disabled, gate is 5%%", 100*(rs[mid]-1))
		}
	})
	t.Run("pooled", func(t *testing.T) {
		atLeastTwoProcs(t)
		const pairs, lo, mid, hi = 300, 120, 150, 179
		rs, pooled, serial := ratios(pairs)
		t.Logf("smoothing step obs on/off: median %.4fx [%.4f, %.4f] of %d pairs of %d steps (range %.3f-%.3f)",
			rs[mid], rs[lo], rs[hi], pairs, sweepsPerBatch, rs[0], rs[pairs-1])
		if pooled == 0 || serial != 0 {
			t.Fatalf("%d of the %d dispatches of a batch ran on the shared worker set: the gate is not on the pooled path", pooled, pooled+serial)
		}
		if rs[lo] > 1.05 {
			t.Errorf("obs-enabled smoothing step is at least %.1f%% slower than disabled on the shared worker set, gate is 5%%", 100*(rs[lo]-1))
		}
	})
}

// BenchmarkFMGApply measures one preconditioner application — the default
// FMG cycle with the CG-wrapped block-Jacobi smoother — on the two library
// systems of BENCHMARK.json at the benchmark's sizes: spheres (20.6k dofs,
// CSR fine level over blocked Galerkin levels) and the cube (46.9k dofs,
// BSR throughout). It must not allocate.
func BenchmarkFMGApply(b *testing.B) {
	for _, tc := range []struct {
		name string
		sys  func(testing.TB, bool, multigrid.Options) reducedSystem
	}{
		{"spheres20k", spheresSystem},
		{"cube47k", cubeSystem},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mg := tc.sys(b, true, multigrid.Options{}).hierarchy(b)
			r := make([]float64, mg.Levels[0].A.Rows())
			z := make([]float64, len(r))
			for i := range r {
				r[i] = float64(i%7) - 3
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mg.Apply(r, z)
			}
		})
	}
}

// BenchmarkGalerkin measures the coarse operator triple product R·A·Rᵀ.
func BenchmarkGalerkin(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	p := fem.NewProblem(s.Mesh, s.Models, true)
	k, _, err := p.AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.Coarsen(s.Mesh, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := h.Grids[1].R
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sparse.Galerkin(r, k)
	}
}

// BenchmarkPreconditioner measures one hierarchy build on the
// spheres_newton tangent: "plan" from a Solver without a plan (the first
// build of a mesh), "fill" into the plan of an earlier operator of the
// same pattern (every Newton rebuild after the first).
func BenchmarkPreconditioner(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	solver, err := NewSolver(s.Mesh, s.Cons, Options{})
	if err != nil {
		b.Fatal(err)
	}
	k, _, err := NewProblem(s.Mesh, s.Models, true).AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		b.Fatal(err)
	}
	kred, _ := solver.ReduceSystem(k, make([]float64, s.Mesh.NumDOF()))
	if _, err := solver.Preconditioner(kred); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		solver func() *Solver
	}{
		{"plan", func() *Solver { return withoutPlan(solver) }},
		{"fill", func() *Solver { return solver }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.solver().Preconditioner(kred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDelaunay measures the coarse-grid remesher on a random cloud.
func BenchmarkDelaunay(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Vec3, 500)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delaunay.New(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaceID measures the Figure 3 face identification on the model
// problem boundary (including material interfaces).
func BenchmarkFaceID(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	facets := s.Mesh.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n = topo.IdentifyFaces(facets, adj, topo.DefaultTOL)
	}
	b.ReportMetric(float64(n), "faces")
}

// BenchmarkAssembly measures element integration and assembly (the FEAP
// "fine grid creation" phase).
func BenchmarkAssembly(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	p := fem.NewProblem(s.Mesh, s.Models, true)
	u := make([]float64, s.Mesh.NumDOF())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.AssembleTangent(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd is the full public-API pipeline on the quickstart cube.
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewStructuredHexMesh(8, 8, 8, 1, 1, 1, nil)
		cons := NewConstraints()
		f := make([]float64, m.NumDOF())
		for v, pt := range m.Coords {
			if pt.Z == 0 {
				cons.FixVert(v, 0, 0, 0)
			}
			if pt.Z == 1 {
				f[3*v+2] = -0.001
			}
		}
		solver, err := NewSolver(m, cons, Options{RTol: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
		k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := solver.SolveLinear(k, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMGCompare runs the section 8 comparison: MIS geometric
// coarsening vs smoothed aggregation on the same operator (E20).
func BenchmarkAMGCompare(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	p := fem.NewProblem(s.Mesh, s.Models, true)
	u := make([]float64, s.Mesh.NumDOF())
	s.Cons.Scaled(0.1).Apply(u)
	k, fint, err := p.AssembleTangent(u)
	if err != nil {
		b.Fatal(err)
	}
	zero := fem.NewConstraints()
	for d := range s.Cons.Fixed {
		zero.FixDof(d, 0)
	}
	dm := zero.NewDofMap(s.Mesh.NumDOF())
	rhs := make([]float64, len(fint))
	for i := range rhs {
		rhs[i] = -fint[i]
	}
	kred, rred := zero.Reduce(k, rhs, dm)

	b.Run("geometric", func(b *testing.B) {
		var its int
		for i := 0; i < b.N; i++ {
			h, err := core.Coarsen(s.Mesh, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var rs []*sparse.CSR
			for l := 1; l < h.NumLevels(); l++ {
				rr := h.Grids[l].R
				if l == 1 {
					rr = multigrid.CompressCols(rr, dm.Full2Red, dm.NumFree())
				}
				rs = append(rs, rr)
			}
			mg, err := multigrid.New(kred, rs, multigrid.Options{})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, kred.NRows)
			res := krylov.FPCG(kred, rred, x, mg, 1e-4, 2000)
			if !res.Converged {
				b.Fatal("not converged")
			}
			its = res.Iterations
		}
		b.ReportMetric(float64(its), "PCG-iters")
	})
	b.Run("smoothed-aggregation", func(b *testing.B) {
		var its int
		for i := 0; i < b.N; i++ {
			bnn := aggregation.RigidBodyModes(s.Mesh.Coords, dm.Full2Red, dm.NumFree())
			rs, err := aggregation.BuildRestrictions(kred, bnn, aggregation.Options{})
			if err != nil {
				b.Fatal(err)
			}
			mg, err := multigrid.New(kred, rs, multigrid.Options{})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, kred.NRows)
			res := krylov.FPCG(kred, rred, x, mg, 1e-4, 2000)
			if !res.Converged {
				b.Fatal("not converged")
			}
			its = res.Iterations
		}
		b.ReportMetric(float64(its), "PCG-iters")
	})
}

// BenchmarkAssembleReduce measures the per-matrix phases ahead of matrix
// setup on the two library systems of BENCHMARK.json at the benchmark's
// sizes: tangent assembly (pattern, element integration, scatter, scalar
// expansion) and Dirichlet reduction.
func BenchmarkAssembleReduce(b *testing.B) {
	sp := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4})
	u0 := make([]float64, sp.Mesh.NumDOF())
	sp.Cons.Scaled(0.1).Apply(u0)
	cube := problems.NewCube(24, LinearElastic{E: 1, Nu: 0.3}, -0.001)
	for _, tc := range []struct {
		name string
		p    *Problem
		cons *Constraints
		u    []float64
	}{
		{"cube_46.9k", NewProblem(cube.Mesh, cube.Models, false), cube.Cons, make([]float64, cube.Mesh.NumDOF())},
		{"spheres_20.6k", NewProblem(sp.Mesh, sp.Models, true), sp.Cons, u0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dm := tc.cons.NewDofMap(tc.p.M.NumDOF())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, f, err := tc.p.AssembleTangent(tc.u)
				if err != nil {
					b.Fatal(err)
				}
				kred, _ := tc.cons.Reduce(k, f, dm)
				if kred.NRows != dm.NumFree() {
					b.Fatal("reduced system has the wrong size")
				}
			}
		})
	}
}
