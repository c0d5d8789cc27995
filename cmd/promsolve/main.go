// Command promsolve builds one of the bundled problems, runs the solver
// once, and prints the solve breakdown — the "one linear solve" experiment
// of section 7.1 in miniature, or the full nonlinear crush with -nonlinear.
// Every linear solve is the paper's: flexible CG preconditioned by one
// full multigrid cycle.
//
// Usage:
//
//	promsolve [-problem spheres|cube|cantilever] [-mesh file] [-size k]
//	          [-nonlinear] [-steps n] [-rtol tol]
//	          [-profile] [-profile-dir dir] [-http addr]
//
// -profile records every instrumented phase with the internal/obs
// subsystem and prints the PETSc -log_view-style event table plus the
// measured-counter parallel efficiency figures after the solve.
// -profile-dir additionally writes logview.txt, profile.json and
// trace.json (Chrome trace_event format, open in about:tracing or
// https://ui.perfetto.dev) into the directory. -http serves
// /debug/pprof and /debug/vars (the obs profile is published as the
// expvar "prometheus_obs") on the given address for the whole run.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"time"

	prometheus "prometheus"
	"prometheus/internal/experiments/parallel"
	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/material"
	"prometheus/internal/meshio"
	"prometheus/internal/obs"
	"prometheus/internal/perf"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

func main() {
	problem := flag.String("problem", "spheres", "problem: spheres, cube, cantilever")
	meshFile := flag.String("mesh", "", "solve on a mesh file (flat meshio format) instead of a generated problem; clamps min-z, loads max-z")
	size := flag.Int("size", 1, "refinement parameter")
	nonlinear := flag.Bool("nonlinear", false, "run the Newton crush instead of one linear solve")
	steps := flag.Int("steps", 10, "load steps for -nonlinear")
	rtol := flag.Float64("rtol", 1e-4, "linear relative tolerance")
	profile := flag.Bool("profile", false, "record obs events and print the -log_view-style table after the run")
	profileDir := flag.String("profile-dir", "", "with -profile, write logview.txt, profile.json and trace.json into this directory")
	httpAddr := flag.String("http", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	flag.Parse()

	if *httpAddr != "" {
		obs.PublishExpvar()
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "promsolve: http: %v\n", err)
			}
		}()
		fmt.Printf("serving pprof/expvar on http://%s/debug/pprof and /debug/vars\n", *httpAddr)
	}
	if *profile || *profileDir != "" {
		obs.EnableWith(obs.Config{RingCap: 1 << 17})
	}

	opts := prometheus.Options{RTol: *rtol}

	var m *prometheus.Mesh
	var cons *prometheus.Constraints
	var models []prometheus.Model
	var load []float64
	hardMat := -1

	if *meshFile != "" {
		f, err := os.Open(*meshFile)
		fail(err)
		mm, err := meshio.Read(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fail(err)
		m = mm
		models = []prometheus.Model{prometheus.LinearElastic{E: 1, Nu: 0.3}}
		cons = prometheus.NewConstraints()
		load = make([]float64, m.NumDOF())
		box := geom.NewAABB(m.Coords)
		for v, pt := range m.Coords {
			if pt.Z < box.Min.Z+1e-9 {
				cons.FixVert(v, 0, 0, 0)
			}
			if pt.Z > box.Max.Z-1e-9 {
				load[3*v+2] = -0.001
			}
		}
	} else {
		switch *problem {
		case "spheres":
			cfg := problems.SpheresConfig{
				Layers: 5, ElemsPerLayer: *size, CoreElems: 2 * *size, OuterElems: 2 * *size,
			}
			s := problems.NewSpheresConfig(cfg)
			s.Models[material.MatHard] = material.J2Plasticity{
				E: 1, Nu: 0.3, SigmaY: problems.ScaledYieldStress(cfg), H: 0.002,
			}
			m, cons, models = s.Mesh, s.Cons, s.Models
			hardMat = s.HardMat
		case "cube":
			c := problems.NewCube(4**size, prometheus.LinearElastic{E: 1, Nu: 0.3}, -0.001)
			m, cons, models, load = c.Mesh, c.Cons, c.Models, c.Load
		case "cantilever":
			c := problems.NewCantilever(6**size, *size, *size, 6, prometheus.LinearElastic{E: 1, Nu: 0.3}, -0.0001)
			m, cons, models, load = c.Mesh, c.Cons, c.Models, c.Load
		default:
			fmt.Fprintf(os.Stderr, "promsolve: unknown problem %q\n", *problem)
			os.Exit(2)
		}
	}

	fmt.Printf("problem %s: %d vertices, %d elements, %d dof\n",
		*problem, m.NumVerts(), m.NumElems(), m.NumDOF())

	t0 := time.Now()
	solver, err := prometheus.NewSolver(m, cons, opts)
	fail(err)
	counts, ratios := solver.VertexReduction()
	fmt.Printf("mesh setup: %v, %d levels, vertices per grid %v (ratios %v)\n",
		time.Since(t0).Round(time.Millisecond), solver.NumLevels(), counts, fmtRatios(ratios))

	bbar := *problem == "spheres"
	p := prometheus.NewProblem(m, models, bbar)

	if *nonlinear {
		t1 := time.Now()
		_, stats, err := solver.SolveNonlinear(p, prometheus.NewtonConfig{Steps: *steps}, hardMat)
		fail(err)
		fmt.Printf("nonlinear solve: %v\n", time.Since(t1).Round(time.Millisecond))
		for i, ss := range stats.Steps {
			fmt.Printf("  step %2d: %d Newton its, PCG %v, plastic %.1f%%\n",
				i+1, ss.NewtonIters, ss.PCGIters, 100*ss.PlasticFrac)
		}
		fmt.Printf("totals: %d Newton its, %d PCG its, first solve %d its\n",
			stats.TotalNewton, stats.TotalPCG, stats.FirstSolveIters)
		if *profile || *profileDir != "" {
			reportProfile(*profileDir, nil, nil)
		}
		waitHTTP(*httpAddr)
		return
	}

	t1 := time.Now()
	u := make([]float64, m.NumDOF())
	cons.Scaled(0.1).Apply(u)
	k, fint, err := p.AssembleTangent(u)
	fail(err)
	fmt.Printf("fine grid creation: %v (%d nonzeros)\n", time.Since(t1).Round(time.Millisecond), k.NNZ())

	f := load
	if f == nil {
		f = make([]float64, m.NumDOF())
		for i := range f {
			f[i] = -fint[i]
		}
	}
	t2 := time.Now()
	_, res, err := solver.SolveLinear(k, f)
	fail(err)
	fmt.Printf("matrix setup + solve: %v\n", time.Since(t2).Round(time.Millisecond))
	fmt.Printf("MG-PCG: %d iterations to rtol=%g on %d levels; %.1f Mflop solve, %.1f Mflop setup\n",
		res.Iterations, *rtol, res.Levels,
		float64(res.SolveFlops)/1e6, float64(res.SetupFlops)/1e6)

	if *profile || *profileDir != "" {
		// Dof ownership for the measured parallel phase: RCB over the
		// mesh vertices, three dofs per vertex.
		owner := make([]int, m.NumDOF())
		for v, o := range graph.RCB(m.Coords, profileRanks) {
			owner[3*v] = o
			owner[3*v+1] = o
			owner[3*v+2] = o
		}
		reportProfile(*profileDir, k, owner)
	}
	waitHTTP(*httpAddr)
}

// profileRanks is the simulated rank count of the -profile measured
// halo phase (the measured-counter efficiency figures).
const profileRanks = 4

// reportProfile prints the obs event table and, when k is non-nil, the
// measured-counter parallel efficiency of a halo SpMV phase over k's
// scalar expansion.
// With dir non-empty it also writes logview.txt, profile.json and
// trace.json (Chrome trace_event format) there.
func reportProfile(dir string, k *prometheus.BSR, owner []int) {
	// Snapshot before the halo phase below resets the recording.
	p := obs.Snapshot()
	fmt.Println()
	fail(p.WriteLogView(os.Stdout))
	if dir != "" {
		fail(os.MkdirAll(dir, 0o755))
		writeFile := func(name string, write func(f *os.File) error) {
			f, err := os.Create(filepath.Join(dir, name))
			fail(err)
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			fail(err)
		}
		writeFile("logview.txt", func(f *os.File) error { return p.WriteLogView(f) })
		writeFile("profile.json", func(f *os.File) error { return p.WriteJSON(f) })
		writeFile("trace.json", func(f *os.File) error { return p.WriteChromeTrace(f) })
		fmt.Printf("wrote %s/{logview.txt,profile.json,trace.json}\n", dir)
	}
	if k == nil {
		return
	}
	eff, err := parallel.MeasuredHaloEfficiency(sparse.AsCSR(k), owner, profileRanks, 20, perf.PaperIBM())
	fail(err)
	fmt.Printf("measured halo SpMV on %d ranks: %d flops, %d msgs, %d bytes\n",
		eff.Ranks, eff.Flops, eff.Msgs, eff.Bytes)
	fmt.Printf("  efficiency (IBM model): load %.3f  e_c %.3f  e^I_s %.3f  e^F_s %.3f  total %.3f\n",
		eff.Load, eff.Eff.Ec, eff.Eff.EIs, eff.Eff.EFs, eff.Eff.Total)
}

// waitHTTP keeps the process alive after the run when -http is set, so
// the pprof and expvar endpoints stay inspectable. Interrupt to exit.
func waitHTTP(addr string) {
	if addr == "" {
		return
	}
	fmt.Printf("run complete; still serving http://%s (interrupt to exit)\n", addr)
	select {}
}

func fmtRatios(r []float64) []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = fmt.Sprintf("%.3f", v)
	}
	return out
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "promsolve: %v\n", err)
		os.Exit(1)
	}
}
