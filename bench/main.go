// Command bench is the one benchmark of the whole stack. It runs five
// workloads through the solver's exported functions and the real promserve
// binary, checks every result, and reports the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one, as declared in
// BENCHMARK.json at the root of the tree. See README.md.
//
// Usage (from the root of the tree, through bench/run.sh, which builds):
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//	bench all [--seed N] [--runs K] [--seconds S] [--out FILE]
//	bench compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"prometheus/internal/problems"
	"prometheus/internal/serve"
)

// sizes fixes how large each workload is. The full sizes are chosen so
// the fine operators leave the L2 cache; the smoke test swaps in tiny
// ones.
type sizes struct {
	spheresLinear problems.SpheresConfig
	cubeN         int
	newton        problems.SpheresConfig
	newtonSteps   int
	// newtonCrush scales the problem's total crush (the seed moves it by a
	// thousandth). Half the paper's crush keeps a rep near four seconds.
	newtonCrush float64
	warmKeys    []serveKey
	churnKeys   []serveKey
	// triadBytes overrides the size of each triad array; zero sizes them
	// from the last-level cache (triadArrayBytes).
	triadBytes int64
}

// fullSizes are the benchmark's workloads as BENCHMARK.json describes
// them.
func fullSizes() sizes {
	sz := sizes{
		spheresLinear: problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4},
		cubeN:         24,
		newton:        problems.SpheresConfig{Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2},
		newtonSteps:   2,
		newtonCrush:   0.5,
	}
	for _, s := range []serve.Spec{{Problem: "cube", Size: 3}, {Problem: "cube", Size: 4}, {Problem: "cantilever", Size: 6}, {Problem: "cantilever", Size: 8}} {
		sz.warmKeys = append(sz.warmKeys, serveKey{spec: s, scale: 1})
	}
	var geoms []serve.Spec
	for _, n := range []int{1, 2, 3, 4} {
		geoms = append(geoms, serve.Spec{Problem: "cube", Size: n})
	}
	for _, n := range []int{2, 3, 4, 5, 6, 8} {
		geoms = append(geoms, serve.Spec{Problem: "cantilever", Size: n})
	}
	for _, g := range geoms {
		for _, scale := range []float64{0.5, 1, 2} {
			sz.churnKeys = append(sz.churnKeys, serveKey{spec: g, scale: scale})
		}
	}
	return sz
}

// Where bench/run.sh puts the service binary, and where traces and run
// sets go; both relative to the root of the tree the benchmark runs in.
var (
	promserveBin = filepath.Join(".bench_build", "promserve")
	outDir       = filepath.Join("bench", "out")
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// maxOps, when positive, ends the timed part after that many
	// operations whatever the clock says (the smoke test).
	maxOps int
	// outDir receives the trace file.
	outDir string
	// promserve is the service binary; empty runs the handler in-process.
	promserve string
	sz        sizes
}

// result is what one run reports: the fixed result line's four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems  []string
	tracePath string
}

// runWorkload runs cfg.workload and returns its result. An error means
// the run could not be completed or measured; failed verifications are
// counted in the result instead.
func runWorkload(ctx context.Context, spec *benchSpec, cfg runConfig) (*result, error) {
	rec := newRecorder(spec.metrics(cfg.traced))
	res := &result{}
	var run *outcome
	var err error
	switch cfg.workload {
	case "spheres_linear":
		run, err = runLibrary(cfg, linearRep(spheresLinearCase(cfg.sz.spheresLinear, cfg.seed)), true, rec)
	case "cube_linear":
		run, err = runLibrary(cfg, linearRep(cubeLinearCase(cfg.sz.cubeN, cfg.seed)), true, rec)
	case "spheres_newton":
		// No separate warm-up: a rep is long, and the median of three
		// sheds the cold first one.
		run, err = runLibrary(cfg, newtonRep(cfg.sz.newton, cfg.sz.newtonSteps, newtonCrushFor(cfg.sz.newtonCrush, cfg.seed)), false, rec)
	case "serve_warm":
		run, err = runServe(ctx, cfg, serveWorkload{keys: cfg.sz.warmKeys, prefill: true, setups: 3}, rec)
	case "serve_churn":
		run, err = runServe(ctx, cfg, serveWorkload{keys: cfg.sz.churnKeys, repeat: true, setups: 15}, rec)
	default:
		err = fmt.Errorf("bench: unknown workload %q", cfg.workload)
	}
	if run != nil {
		res.Attempted, res.Failed, res.problems, res.tracePath = run.attempted, run.failed, run.problems, run.tracePath
	}
	if err != nil {
		return res, err
	}
	// An untraced run must measure every end-to-end metric; a traced run
	// leaves the layers a workload does not exercise at zero.
	if res.Metrics, err = rec.finish(!cfg.traced); err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// printRun writes the header and every metric by name and unit, then, as
// the last line of standard output, the result line.
func printRun(cfg runConfig, res *result, wall time.Duration) error {
	m := readMachine()
	fmt.Printf("# bench workload=%s seed=%d seconds=%g trace=%t n=%d wall=%.1fs\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, res.Attempted, wall.Seconds())
	fmt.Printf("# nproc=%d GOMAXPROCS=%d cpu=%q llc=%dMiB %s commit=%s\n",
		m.NProc, m.GOMAXPROCS, m.CPUModel, m.LLCBytes>>20, m.GoVersion, m.GitCommit)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, p := range res.problems {
		fmt.Printf("# FAILED %s\n", p)
	}
	if res.tracePath != "" {
		fmt.Printf("# trace written to %s\n", res.tracePath)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("bench: encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// runOne is the driver's entry: one workload, one seed, one result line.
func runOne(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics and a trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if !spec.hasWorkload(*workload) {
		return fmt.Errorf("bench: --workload %q is not declared in BENCHMARK.json", *workload)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0,
		outDir: outDir, promserve: promserveBin, sz: fullSizes(),
	}
	t0 := time.Now()
	res, err := runWorkload(context.Background(), spec, cfg)
	if err != nil {
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "bench: FAILED %s\n", p)
		}
		return err
	}
	if err := printRun(cfg, res, time.Since(t0)); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("bench: %d of %d operations failed verification", res.Failed, res.Attempted)
	}
	return nil
}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "all":
		err = runAll(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = runCompare(os.Args[2:])
	default:
		err = runOne(os.Args[1:])
	}
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}
