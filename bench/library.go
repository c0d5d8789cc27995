package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	prometheus "prometheus"
	"prometheus/internal/experiments"
	"prometheus/internal/krylov"
	"prometheus/internal/material"
	"prometheus/internal/multigrid"
	"prometheus/internal/newton"
	"prometheus/internal/obs"
	"prometheus/internal/problems"
	"prometheus/internal/serve"
	"prometheus/internal/sparse"
)

// linearRTol is the tolerance of the linear workloads, the paper's
// first-solve tolerance; linearMaxIters bounds FPCG.
const (
	linearRTol     = 1e-4
	linearMaxIters = 1000
)

// artifacts are what one rep leaves behind for the per-layer probes that
// run after the timed reps: the hierarchy, the fine operator and enough of
// the problem to build the matrix-free operator beside it.
type artifacts struct {
	solver  *prometheus.Solver
	problem *prometheus.Problem
	load    []float64
	fine    sparse.Operator
	mg      *multigrid.MG
}

// repOut is one timed operation of a library workload.
type repOut struct {
	root       int // the rep's span
	wall       time.Duration
	setup      time.Duration
	solve      time.Duration
	iterations int
	hash       string
	// problem is empty when the rep's own checks passed.
	problem string
	art     *artifacts
	// layer holds the per-layer numbers only this rep can supply
	// (counts, and times taken inside the verify step).
	layer map[string]float64
}

// repFunc runs one operation, problem spec in to verified solution out,
// recording a span per layer call. traced additionally wraps the
// preconditioner so every Apply is a span.
type repFunc func(tr *tracer, traced bool) (*repOut, error)

// timedPrecond times a krylov.Preconditioner from outside: one span per
// Apply.
type timedPrecond struct {
	inner krylov.Preconditioner
	tr    *tracer
}

// Apply implements krylov.Preconditioner.
func (p *timedPrecond) Apply(r, z []float64) {
	s := p.tr.begin("multigrid.apply")
	p.inner.Apply(r, z)
	p.tr.end(s)
}

// linearCase is a generated linear problem: geometry, materials, the
// displacement state the tangent is taken at and the load (nil: the
// out-of-balance force of that state).
type linearCase struct {
	mesh   *prometheus.Mesh
	cons   *prometheus.Constraints
	models []prometheus.Model
	bbar   bool
	u0     []float64
	load   []float64
}

// spheresModels returns the Table 1 materials with the hard layers made
// J2-plastic at the yield stress scaled to the layer count, as promsolve
// and the Figure 13 experiment configure them.
func spheresModels(s *problems.Spheres) {
	s.Models[material.MatHard] = material.J2Plasticity{
		E: 1, Nu: 0.3, SigmaY: experiments.ScaledYieldStress(s.Config), H: 0.002,
	}
}

// spheresLinearCase draws the crush fraction from the seed, within one
// percent of promsolve's tenth, and returns the generator of the paper's
// model problem at that state. The range is narrow for the reason given at
// newtonCrushFor: between 0.08 and 0.12 the iteration count already flips
// between 25 and 26.
func spheresLinearCase(cfg problems.SpheresConfig, seed int64) func() *linearCase {
	rng := rand.New(rand.NewSource(seed))
	crush := 0.1 * (0.99 + 0.02*rng.Float64())
	return func() *linearCase {
		s := problems.NewSpheresConfig(cfg)
		spheresModels(s)
		u0 := make([]float64, s.Mesh.NumDOF())
		s.Cons.Scaled(crush).Apply(u0)
		return &linearCase{mesh: s.Mesh, cons: s.Cons, models: s.Models, bbar: true, u0: u0}
	}
}

// cubeLinearCase returns the generator of the clamped cube whose top-face
// load is perturbed by up to 20 % per node, the factors drawn from the
// seed.
func cubeLinearCase(n int, seed int64) func() *linearCase {
	return func() *linearCase {
		rng := rand.New(rand.NewSource(seed))
		c := problems.NewCube(n, prometheus.LinearElastic{E: 1, Nu: 0.3}, -0.001)
		for i, v := range c.Load {
			if v != 0 {
				c.Load[i] = v * (0.8 + 0.4*rng.Float64())
			}
		}
		return &linearCase{
			mesh: c.Mesh, cons: c.Cons, models: c.Models,
			u0: make([]float64, c.Mesh.NumDOF()), load: c.Load,
		}
	}
}

// relResidual recomputes ‖f − K·x‖/‖f‖ with the benchmark's own loop over
// the CSR arrays, so the check does not lean on the kernels it measures.
func relResidual(k *sparse.CSR, f, x []float64) float64 {
	var rr, ff float64
	for i := 0; i < k.NRows; i++ {
		s := f[i]
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			s -= k.Val[p] * x[k.ColIdx[p]]
		}
		rr += s * s
		ff += f[i] * f[i]
	}
	if ff == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / ff)
}

// linearRep returns the operation of a linear workload: generate, mesh
// setup, assembly, reduction, matrix setup, FPCG, verification.
func linearRep(generate func() *linearCase) repFunc {
	return func(tr *tracer, traced bool) (*repOut, error) {
		root := tr.begin("rep")
		s := tr.begin("problems.generate")
		c := generate()
		tr.end(s)

		s = tr.begin("core.coarsen")
		solver, err := prometheus.NewSolver(c.mesh, c.cons, prometheus.Options{RTol: linearRTol, MaxIters: linearMaxIters})
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("bench: mesh setup: %w", err)
		}

		s = tr.begin("fem.assemble")
		p := prometheus.NewProblem(c.mesh, c.models, c.bbar)
		k, fint, err := p.AssembleTangent(c.u0)
		if err != nil {
			return nil, fmt.Errorf("bench: assembly: %w", err)
		}
		f := c.load
		if f == nil {
			f = make([]float64, len(fint))
			for i, v := range fint {
				f[i] = -v
			}
		}
		assemble := tr.end(s)

		s = tr.begin("fem.reduce")
		kred, fred := solver.ReduceSystem(k, f)
		tr.end(s)

		s = tr.begin("multigrid.setup")
		mg, err := solver.Preconditioner(kred)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("bench: matrix setup: %w", err)
		}

		var pre krylov.Preconditioner = mg
		if traced {
			pre = &timedPrecond{inner: mg, tr: tr}
		}
		s = tr.begin("krylov.fpcg")
		x := make([]float64, kred.Rows())
		res := krylov.FPCG(kred, fred, x, pre, linearRTol, linearMaxIters)
		solve := tr.end(s)

		s = tr.begin("bench.verify")
		u := solver.ExpandSolution(x)
		rel := relResidual(kred, fred, x)
		hash := serve.SolutionHash(u)
		tr.end(s)
		wall := tr.end(root)

		out := &repOut{
			root: root, wall: wall, solve: solve, setup: wall - solve,
			iterations: res.Iterations, hash: hash,
			art:   &artifacts{solver: solver, problem: p, load: f, fine: mg.Levels[0].A, mg: mg},
			layer: map[string]float64{"fem.assemble_kelem_per_s": float64(c.mesh.NumElems()) / 1e3 / assemble.Seconds()},
		}
		switch {
		case !res.Converged:
			out.problem = fmt.Sprintf("FPCG did not reach rtol %g in %d iterations", linearRTol, res.Iterations)
		case !(rel <= 10*linearRTol):
			out.problem = fmt.Sprintf("recomputed relative residual %g exceeds %g", rel, 10*linearRTol)
		}
		return out, nil
	}
}

// newtonEquilibriumTol bounds the out-of-balance force left on the free
// dofs after the Newton solve, as a share of the internal force including
// the reactions. Converged runs sit near 1e-7; an unconverged step leaves
// percents.
const newtonEquilibriumTol = 1e-4

// newtonMaxIters is the Newton iteration bound per load step (newton's own
// default); a step that reaches it has not converged.
const newtonMaxIters = 30

// newtonRep returns the operation of the Newton workload: generate, mesh
// setup, then newton.Solve with the preconditioner factory timed from
// outside, then verification. The total crush is the problem's own scaled
// by crush.
func newtonRep(cfg problems.SpheresConfig, steps int, crush float64) repFunc {
	return func(tr *tracer, traced bool) (*repOut, error) {
		root := tr.begin("rep")
		s := tr.begin("problems.generate")
		sp := problems.NewSpheresConfig(cfg)
		spheresModels(sp)
		cons := sp.Cons.Scaled(crush)
		gen := tr.end(s)

		s = tr.begin("core.coarsen")
		solver, err := prometheus.NewSolver(sp.Mesh, cons, prometheus.Options{})
		coarsen := tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("bench: mesh setup: %w", err)
		}

		p := prometheus.NewProblem(sp.Mesh, sp.Models, true)
		art := &artifacts{solver: solver, problem: p, load: make([]float64, sp.Mesh.NumDOF())}
		builds := 0
		factory := func(k sparse.Operator) (krylov.Preconditioner, error) {
			fs := tr.begin("multigrid.setup")
			mg, err := solver.Preconditioner(k)
			tr.end(fs)
			if err != nil {
				return nil, err
			}
			builds++
			art.fine, art.mg = mg.Levels[0].A, mg
			if traced {
				return &timedPrecond{inner: mg, tr: tr}, nil
			}
			return mg, nil
		}
		s = tr.begin("newton.solve")
		u, stats, err := newton.Solve(p, cons, newton.Config{Steps: steps, MaxNewton: newtonMaxIters}, factory, sp.HardMat)
		solve := tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("bench: newton: %w", err)
		}

		// Verification: every load step stopped on the energy criterion,
		// not the iteration bound, and the converged state is in
		// equilibrium on the free dofs.
		s = tr.begin("bench.verify")
		ta := time.Now()
		_, fint, err := p.AssembleTangent(u)
		assemble := time.Since(ta)
		if err != nil {
			return nil, fmt.Errorf("bench: verification assembly: %w", err)
		}
		var free, all float64
		for i, v := range fint {
			all += v * v
			if _, fixed := cons.Fixed[i]; !fixed {
				free += v * v
			}
		}
		imbalance := math.Sqrt(free / all)
		hash := serve.SolutionHash(u)
		tr.end(s)
		wall := tr.end(root)

		out := &repOut{
			root: root, wall: wall, solve: solve, setup: gen + coarsen,
			iterations: stats.TotalPCG, hash: hash, art: art,
			layer: map[string]float64{
				"newton.newton_iterations": float64(stats.TotalNewton),
				"newton.pcg_iterations":    float64(stats.TotalPCG),
				"newton.precond_builds":    float64(builds),
				// newton.Solve assembles inside; from outside one
				// assembly of the converged state is timed and scaled by
				// the number of Newton iterations.
				"fem.assemble_s":           assemble.Seconds() * float64(stats.TotalNewton),
				"fem.assemble_kelem_per_s": float64(sp.Mesh.NumElems()) / 1e3 / assemble.Seconds(),
			},
		}
		for i, st := range stats.Steps {
			if st.NewtonIters >= newtonMaxIters {
				out.problem = fmt.Sprintf("load step %d used all %d Newton iterations", i+1, st.NewtonIters)
			}
		}
		if out.problem == "" && !(imbalance <= newtonEquilibriumTol) {
			out.problem = fmt.Sprintf("out-of-balance force share %g exceeds %g", imbalance, newtonEquilibriumTol)
		}
		return out, nil
	}
}

// obsRingCap holds one traced rep's obs spans: a Newton rep records about
// forty thousand.
const obsRingCap = 1 << 17

// obsSeconds returns the accumulated time of an obs event in a profile.
func obsSeconds(p *obs.Profile, name string) float64 {
	e, ok := p.Event(name)
	if !ok {
		return 0
	}
	return float64(e.Totals().TimeNs) / 1e9
}

// obsCoreChildren maps the per-layer names of the coarsening phases to the
// obs events that time them inside core.Coarsen.
var obsCoreChildren = map[string]string{
	"core.classify_s": "core.coarsen.classify",
	"core.mis_s":      "core.coarsen.mis",
	"core.remesh_s":   "core.coarsen.remesh",
	"core.restrict_s": "core.coarsen.restrict",
}

// outcome is what a workload's run leaves beside its metrics: how many
// operations were verified and how many failed, the first few failures in
// words, and where the trace went.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	tracePath string
}

// runLibrary runs a library workload in this process: an optional untimed
// warm-up rep, then timed reps until cfg.seconds have passed. An untraced
// run reports the end-to-end metrics. A traced run alternates untraced and
// traced reps, reports the per-layer metrics from the traced ones (medians
// over reps), the overhead as the ratio of the two kinds, then probes the
// kernels on the last rep's hierarchy and writes the trace.
func runLibrary(cfg runConfig, rep repFunc, warmup bool, rec *recorder) (*outcome, error) {
	run := &outcome{}
	tr := newTracer(time.Now())
	obs.Disable()
	if warmup {
		tr.id = 0
		if _, err := rep(tr, false); err != nil {
			return nil, err
		}
	}

	var first *repOut
	var last *repOut
	var walls, setups, solves []float64
	var tracedWalls, plainWalls []float64
	var allocMB, gcCycles, gcPauseMS []float64
	layers := map[string][]float64{}
	minOps := 1
	if cfg.traced {
		minOps = 2
	}
	begin := time.Now()
	for i := 0; ; i++ {
		if i >= minOps && (time.Since(begin).Seconds() >= cfg.seconds || (cfg.maxOps > 0 && i >= cfg.maxOps)) {
			break
		}
		traced := cfg.traced && i%2 == 1
		tr.id = i + 1
		var before runtime.MemStats
		if cfg.traced && !traced {
			runtime.ReadMemStats(&before)
		}
		if traced {
			obs.EnableWith(obs.Config{RingCap: obsRingCap})
		}
		out, err := rep(tr, traced)
		if err != nil {
			obs.Disable()
			return nil, err
		}
		if traced {
			at := time.Now()
			prof := obs.Snapshot()
			obs.Disable()
			tr.adoptObs(prof, at, out.root)
			collectLibraryLayers(tr, out, prof, layers)
			tracedWalls = append(tracedWalls, out.wall.Seconds())
		} else {
			plainWalls = append(plainWalls, out.wall.Seconds())
			if cfg.traced {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
				gcCycles = append(gcCycles, float64(after.NumGC-before.NumGC))
				gcPauseMS = append(gcPauseMS, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
			}
		}

		run.attempted++
		if first == nil {
			first = out
		}
		switch {
		case out.problem != "":
		case out.iterations != first.iterations:
			out.problem = fmt.Sprintf("%d iterations, first rep took %d", out.iterations, first.iterations)
		case out.hash != first.hash:
			out.problem = "solution hash differs from the first rep's"
		}
		if out.problem != "" {
			run.failed++
			run.problems = append(run.problems, fmt.Sprintf("rep %d: %s", i+1, out.problem))
		}
		walls = append(walls, out.wall.Seconds())
		setups = append(setups, out.setup.Seconds())
		solves = append(solves, out.solve.Seconds())
		last = out
	}

	if !cfg.traced {
		rss, err := peakRSSMB(0)
		if err != nil {
			return nil, err
		}
		rec.set("time_to_solution_s", median(walls))
		rec.set("setup_s", median(setups))
		rec.set("solve_s", median(solves))
		rec.set("iterations", float64(first.iterations))
		rec.set("rss_mb", rss)
		// One rep runs at a time and a run holds three to five of them, so
		// throughput is the rate at the median rep time and there is no
		// tail to report: a p95 of four reps is the slowest rep, which on a
		// shared host measures the host.
		rec.set("rps", 1/median(walls))
		rec.set("req_p95_ms", tail95(walls)*1e3)
		return run, nil
	}

	for name, v := range layers {
		rec.set(name, median(v))
	}
	rec.set("go.alloc_mb_per_rep", median(allocMB))
	rec.set("go.gc_cycles_per_rep", median(gcCycles))
	rec.set("go.gc_pause_ms", median(gcPauseMS))
	rec.set("obs.trace_overhead_ratio", median(tracedWalls)/median(plainWalls))
	probeLayers(last.art, rec, median(layers["multigrid.apply_ms_per_call"]))
	probeMachine(rec, cfg.sz.triadBytes)

	path, err := writeTrace(cfg.outDir, cfg.workload, tr.spans, map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "machine": readMachine(),
	})
	if err != nil {
		return nil, err
	}
	run.tracePath = path
	return run, nil
}

// collectLibraryLayers appends one traced rep's per-layer numbers: the
// benchmark's own spans around each layer call, the children obs recorded
// inside them, and the counts the rep returned.
func collectLibraryLayers(tr *tracer, out *repOut, prof *obs.Profile, layers map[string][]float64) {
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	root := out.root
	sec := func(span string) float64 {
		d, _ := tr.descendantTotal(root, span)
		return d.Seconds()
	}
	add("problems.generate_s", sec("problems.generate"))
	add("core.coarsen_s", sec("core.coarsen"))
	for name, ev := range obsCoreChildren {
		add(name, obsSeconds(prof, ev))
	}
	counts, ratios := out.art.solver.VertexReduction()
	worst, total := 0.0, 0
	for _, r := range ratios {
		worst = math.Max(worst, r)
	}
	for _, c := range counts {
		total += c
	}
	add("core.levels", float64(len(counts)))
	add("core.worst_level_ratio", worst)
	add("core.grid_complexity", float64(total)/float64(counts[0]))

	for name, v := range out.layer {
		add(name, v)
	}
	if _, ok := out.layer["fem.assemble_s"]; !ok {
		add("fem.assemble_s", sec("fem.assemble"))
	}
	add("fem.reduce_s", sec("fem.reduce"))

	setup := sec("multigrid.setup")
	galerkin := obsSeconds(prof, "mg.setup.galerkin")
	add("multigrid.setup_s", setup)
	add("multigrid.galerkin_s", galerkin)
	add("multigrid.setup_unattributed_s", setup-galerkin)
	applyD, applies := tr.descendantTotal(root, "multigrid.apply")
	apply := applyD.Seconds()
	add("multigrid.apply_s", apply)
	add("multigrid.applies", float64(applies))
	add("multigrid.apply_ms_per_call", apply*1e3/float64(applies))
	add("multigrid.operator_complexity", out.art.mg.OperatorComplexity())
	add("smooth.cg_s", obsSeconds(prof, "smooth.cg"))

	// FPCG is a benchmark span on the linear workloads; inside
	// newton.Solve only obs sees it.
	fpcg := sec("krylov.fpcg")
	if fpcg == 0 {
		fpcg = obsSeconds(prof, "krylov.fpcg")
	}
	add("krylov.fpcg_s", fpcg)
	add("krylov.self_s", fpcg-apply)
	add("krylov.iterations", float64(out.iterations))
	add("krylov.ms_per_iteration", fpcg*1e3/float64(out.iterations))

	if ns := sec("newton.solve"); ns > 0 {
		add("newton.precond_setup_s", setup)
		add("newton.precond_apply_s", apply)
		add("newton.other_s", ns-setup-apply)
	}
	add("obs.unattributed_share", 1-tr.childrenCover(root).Seconds()/out.wall.Seconds())
}

// newtonCrushFor moves the workload's crush factor by at most a
// thousandth either way, drawn from the seed. The range is narrow on
// purpose: the work of a deterministic solver steps with its input (18 to
// 26 Newton iterations between 0.9 and 1.1 of the paper's crush, and 250
// to 282 PCG iterations within one percent of half of it), and a workload
// whose work changes that much from seed to seed cannot resolve a change
// in the code. Within a thousandth the PCG total stays within 256 to 262.
func newtonCrushFor(base float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return base * (0.999 + 0.002*rng.Float64())
}
