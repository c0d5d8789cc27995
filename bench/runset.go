package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// series is one end-to-end metric on one workload over the runs of a set,
// with the statistics the acceptance check uses: the median, and the
// distance between the quartiles as a share of it.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"`
}

// layerValue is one per-layer metric of the traced run; Value is null
// when the metric was refused (pool.* on one core).
type layerValue struct {
	Unit  string   `json:"unit"`
	Value *float64 `json:"value"`
}

// workloadSet is everything a run set holds about one workload.
type workloadSet struct {
	// N is the number of operations each untraced run verified; WallS how
	// long each run took, set-up and verification included.
	N         []int                 `json:"n"`
	WallS     []float64             `json:"wall_s"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]*series    `json:"end_to_end"`
	PerLayer  map[string]layerValue `json:"per_layer"`
	Trace     string                `json:"trace"`
}

// runSet is the document `bench all` writes: the header, then per
// workload the end-to-end metrics of every untraced run and the per-layer
// metrics of one traced run.
type runSet struct {
	Machine   machineInfo             `json:"machine"`
	Started   string                  `json:"started"`
	Seed      int64                   `json:"seed"`
	Runs      int                     `json:"runs"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// childRun re-executes this program for one workload run, each in a fresh
// process so that peak memory and warm-up belong to that run alone, and
// parses the result line. The child's listing goes to our stderr.
func childRun(workload string, seed int64, seconds float64, traced bool) (*result, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, fmt.Errorf("bench: find own binary: %w", err)
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	runErr := cmd.Run()
	wall := time.Since(t0)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(os.Stderr, "  %s\n", l)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, wall, errors.Join(fmt.Errorf("bench: %s seed %d: no result line: %w", workload, seed, err), runErr)
	}
	// A run that printed a result but exited non-zero failed
	// verification; the counts in the result say so.
	return &res, wall, nil
}

// runAll runs a whole set: for every workload --runs untraced runs on
// consecutive seeds, then one traced run, and writes the run-set document.
func runAll(args []string) error {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "first seed; run i uses seed+i")
	runs := fs.Int("runs", 10, "untraced runs per workload")
	seconds := fs.Float64("seconds", 0, "how long each run measures (default: run_seconds of BENCHMARK.json)")
	only := fs.String("workload", "", "run only this workload")
	outPath := fs.String("out", "", "run-set file (default bench/out/runset-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *outPath == "" {
		*outPath = filepath.Join(outDir, fmt.Sprintf("runset-seed%d.json", *seed))
	}
	set := &runSet{
		Machine: readMachine(), Started: time.Now().UTC().Format(time.RFC3339),
		Seed: *seed, Runs: *runs, Seconds: *seconds, Workloads: map[string]*workloadSet{},
	}
	for _, w := range spec.Workloads {
		if *only != "" && w.Name != *only {
			continue
		}
		ws := &workloadSet{EndToEnd: map[string]*series{}, PerLayer: map[string]layerValue{}}
		set.Workloads[w.Name] = ws
		for _, m := range spec.EndToEnd {
			ws.EndToEnd[m.Name] = &series{Unit: m.Unit}
		}
		for i := 0; i < *runs; i++ {
			fmt.Fprintf(os.Stderr, "== %s run %d/%d (seed %d)\n", w.Name, i+1, *runs, *seed+int64(i))
			res, wall, err := childRun(w.Name, *seed+int64(i), *seconds, false)
			if err != nil {
				return err
			}
			ws.N = append(ws.N, res.Attempted)
			ws.WallS = append(ws.WallS, wall.Seconds())
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			for name, v := range res.Metrics {
				ws.EndToEnd[name].Values = append(ws.EndToEnd[name].Values, v.Value)
			}
		}
		for _, s := range ws.EndToEnd {
			s.Median, s.Spread = median(s.Values), spread(s.Values)
			s.Min, s.Max = minMax(s.Values)
		}
		fmt.Fprintf(os.Stderr, "== %s traced run (seed %d)\n", w.Name, *seed)
		res, _, err := childRun(w.Name, *seed, *seconds, true)
		if err != nil {
			return err
		}
		ws.Attempted += res.Attempted
		ws.Failed += res.Failed
		ws.Trace = filepath.Join(outDir, w.Name+".trace.json")
		for _, m := range spec.PerLayer {
			v := res.Metrics[m.Name].Value
			lv := layerValue{Unit: m.Unit, Value: &v}
			if strings.HasPrefix(m.Name, "pool.") && set.Machine.GOMAXPROCS < 2 {
				lv.Value = nil
			}
			ws.PerLayer[m.Name] = lv
		}
	}
	printSet(spec, set)
	if err := os.MkdirAll(filepath.Dir(*outPath), 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode run set: %w", err)
	}
	if err := os.WriteFile(*outPath, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write run set: %w", err)
	}
	fmt.Printf("run set written to %s\n", *outPath)
	for name, ws := range set.Workloads {
		if ws.Failed > 0 {
			return fmt.Errorf("bench: %s: %d of %d operations failed verification", name, ws.Failed, ws.Attempted)
		}
	}
	return nil
}

// printSet prints every metric of a run set by name and unit.
func printSet(spec *benchSpec, set *runSet) {
	m := set.Machine
	fmt.Printf("bench run set: seed=%d runs=%d seconds=%g nproc=%d GOMAXPROCS=%d cpu=%q llc=%dMiB %s commit=%s\n",
		set.Seed, set.Runs, set.Seconds, m.NProc, m.GOMAXPROCS, m.CPUModel, m.LLCBytes>>20, m.GoVersion, m.GitCommit)
	for _, w := range spec.Workloads {
		ws, ok := set.Workloads[w.Name]
		if !ok {
			continue
		}
		fmt.Printf("\n%s  (operations per run %v, wall per run %.1f s, failed %d of %d)\n",
			w.Name, ws.N, median(ws.WallS), ws.Failed, ws.Attempted)
		fmt.Printf("  %-34s %12s %12s %12s %8s  %s\n", "end-to-end", "median", "min", "max", "spread", "unit")
		for _, ms := range spec.EndToEnd {
			s := ws.EndToEnd[ms.Name]
			fmt.Printf("  %-34s %12.6g %12.6g %12.6g %7.1f%%  %s\n", ms.Name, s.Median, s.Min, s.Max, 100*s.Spread, s.Unit)
		}
		fmt.Printf("  %-34s %12s  %s\n", "per-layer (traced run)", "value", "unit")
		for _, ms := range spec.PerLayer {
			lv := ws.PerLayer[ms.Name]
			if lv.Value == nil {
				fmt.Printf("  %-34s %12s  %s\n", ms.Name, "null", lv.Unit)
				continue
			}
			fmt.Printf("  %-34s %12.6g  %s\n", ms.Name, *lv.Value, lv.Unit)
		}
	}
}

// readSet loads a run-set document.
func readSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var set runSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &set, nil
}

// verdict of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// comparison is one row of compare's table.
type comparison struct {
	metric, workload string
	base, change     *series
	worse            float64 // share of the base median by which change is worse
	bound            float64
	verdict          string
}

// compareSets applies each end-to-end metric's bound to every workload
// both sets hold. A pair is unresolved, not unchanged, when either set's
// own run-to-run spread is wider than the bound.
func compareSets(spec *benchSpec, a, b *runSet) []comparison {
	var rows []comparison
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil || sa.Median == 0 {
				continue
			}
			row := comparison{metric: m.Name, workload: w.Name, base: sa, change: sb, bound: m.Bound, verdict: verdictOK}
			row.worse = (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				row.worse = -row.worse
			}
			switch {
			case sa.Spread > m.Bound || sb.Spread > m.Bound:
				row.verdict = verdictUnresolved
			case row.worse > m.Bound:
				row.verdict = verdictRegression
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// runCompare prints one row per (metric, workload) with both medians, the
// change against the base it is a share of, both spreads and the verdict,
// and fails on a regression or on failed operations in either set.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare BASE.json CHANGE.json")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	rows := compareSets(spec, a, b)
	fmt.Printf("base   %s  commit %s seed %d runs %d\nchange %s  commit %s seed %d runs %d\n\n",
		args[0], a.Machine.GitCommit, a.Seed, a.Runs, args[1], b.Machine.GitCommit, b.Seed, b.Runs)
	fmt.Printf("%-20s %-16s %12s %12s %-6s %22s %7s %8s %8s  %s\n",
		"metric", "workload", "base median", "new median", "unit", "worse by (of base)", "bound", "spread A", "spread B", "verdict")
	regressions := 0
	for _, r := range rows {
		fmt.Printf("%-20s %-16s %12.6g %12.6g %-6s %+8.1f%% of %-10.6g %6.0f%% %7.1f%% %7.1f%%  %s\n",
			r.metric, r.workload, r.base.Median, r.change.Median, r.base.Unit,
			100*r.worse, r.base.Median, 100*r.bound, 100*r.base.Spread, 100*r.change.Spread, r.verdict)
		if r.verdict == verdictRegression {
			regressions++
		}
	}
	for name, ws := range b.Workloads {
		if ws.Failed > 0 {
			return fmt.Errorf("bench: change set: %s has %d failed operations", name, ws.Failed)
		}
	}
	for name, ws := range a.Workloads {
		if ws.Failed > 0 {
			return fmt.Errorf("bench: base set: %s has %d failed operations", name, ws.Failed)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("bench: %d regressions", regressions)
	}
	return nil
}
