package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"prometheus/internal/problems"
	"prometheus/internal/serve"
)

// tinySizes shrinks every workload to milliseconds: the smoke test checks
// the benchmark's plumbing, not the solver's speed.
func tinySizes() sizes {
	one := problems.SpheresConfig{Layers: 1, ElemsPerLayer: 1, CoreElems: 1, OuterElems: 1}
	sz := sizes{
		spheresLinear: one, cubeN: 4, newton: one, newtonSteps: 1, newtonCrush: 0.5,
		triadBytes: 1 << 20,
	}
	cube, beam := serve.Spec{Problem: "cube", Size: 1}, serve.Spec{Problem: "cantilever", Size: 1}
	sz.warmKeys = []serveKey{{cube, 1}, {beam, 1}}
	sz.churnKeys = []serveKey{{cube, 0.5}, {cube, 1}, {beam, 0.5}, {beam, 1}}
	return sz
}

// tinyRun runs one workload at the tiny sizes: two reps, or eight requests
// against the in-process handler.
func tinyRun(t *testing.T, spec *benchSpec, workload string, traced bool) *result {
	t.Helper()
	cfg := runConfig{workload: workload, seed: 7, traced: traced, maxOps: 2, outDir: t.TempDir(), sz: tinySizes()}
	if workload == "serve_warm" || workload == "serve_churn" {
		cfg.maxOps = 8
	}
	res, err := runWorkload(context.Background(), spec, cfg)
	if err != nil {
		t.Fatalf("%s traced=%t: %v (%v)", workload, traced, err, res.problems)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s traced=%t: correct=%t attempted=%d failed=%d %v",
			workload, traced, res.Correct, res.Attempted, res.Failed, res.problems)
	}
	return res
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecShape holds BENCHMARK.json to the limits its readers enforce.
func TestSpecShape(t *testing.T) {
	spec := mustSpec(t)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// TestEveryMetricOncePerWorkload runs all five workloads, untraced and
// traced, and requires each to report exactly the declared metrics with
// the declared units, and a result line of exactly four keys.
func TestEveryMetricOncePerWorkload(t *testing.T) {
	spec := mustSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, spec, w.Name, traced)
			want := spec.metrics(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, declared %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%t: %s = %v", w.Name, traced, m.Name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, m.Name)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := keys[k]; !ok {
					t.Errorf("result line lacks %q", k)
				}
			}
			if len(keys) != 4 {
				t.Errorf("result line has %d keys: %s", len(keys), line)
			}
		}
	}
}

// TestWorkloadContrasts checks, at the tiny sizes, the two properties the
// serve workloads are named for.
func TestWorkloadContrasts(t *testing.T) {
	spec := mustSpec(t)
	warm := tinyRun(t, spec, "serve_warm", true)
	if r := warm.Metrics["serve.cache_hit_ratio"].Value; r != 1 {
		t.Errorf("serve_warm hit ratio %g, want 1", r)
	}
	churn := tinyRun(t, spec, "serve_churn", true)
	if r := churn.Metrics["serve.cache_hit_ratio"].Value; r >= 1 {
		t.Errorf("serve_churn hit ratio %g, want misses", r)
	}
	newton := tinyRun(t, spec, "spheres_newton", true)
	if n := newton.Metrics["newton.precond_builds"].Value; n < 1 || n != newton.Metrics["newton.newton_iterations"].Value {
		t.Errorf("newton: %g preconditioner builds for %g Newton iterations", n, newton.Metrics["newton.newton_iterations"].Value)
	}
}

// TestTraceSpansNest reads the trace files back: every child lies inside
// its parent, children never add up to more than the parent, and on the
// library workloads the benchmark's own spans cover the rep.
func TestTraceSpansNest(t *testing.T) {
	spec := mustSpec(t)
	for _, workload := range []string{"spheres_linear", "spheres_newton", "serve_churn"} {
		res := tinyRun(t, spec, workload, true)
		raw, err := os.ReadFile(res.tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(res.tracePath) != workload+".trace.json" {
			t.Errorf("trace written to %s", res.tracePath)
		}
		var doc traceFile
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("%s: empty trace", workload)
		}
		const eps = 1e-3 // µs: timestamps are nanoseconds divided by 1e3
		cover := make([]float64, len(doc.TraceEvents))
		obsSpans := 0
		for i, e := range doc.TraceEvents {
			if e.Cat == "obs" {
				obsSpans++
			}
			parent := int(e.Args["parent"].(float64))
			if int(e.Args["span"].(float64)) != i || parent >= len(doc.TraceEvents) {
				t.Fatalf("%s: event %d has span %v parent %d", workload, i, e.Args["span"], parent)
			}
			if parent < 0 {
				continue
			}
			p := doc.TraceEvents[parent]
			if e.Ts < p.Ts-eps || e.Ts+e.Dur > p.Ts+p.Dur+eps {
				t.Errorf("%s: %s [%f,%f] leaves its parent %s [%f,%f]", workload, e.Name, e.Ts, e.Ts+e.Dur, p.Name, p.Ts, p.Ts+p.Dur)
			}
			if e.Args["op"] != p.Args["op"] {
				t.Errorf("%s: %s and its parent %s belong to different operations", workload, e.Name, p.Name)
			}
			cover[parent] += e.Dur
		}
		for i, e := range doc.TraceEvents {
			if cover[i] > e.Dur+eps*float64(len(doc.TraceEvents)) {
				t.Errorf("%s: children of %s take %f µs of its %f", workload, e.Name, cover[i], e.Dur)
			}
			if e.Name == "rep" && cover[i] < 0.95*e.Dur {
				t.Errorf("%s: spans cover %.1f%% of a rep", workload, 100*cover[i]/e.Dur)
			}
		}
		if workload != "serve_churn" && obsSpans == 0 {
			t.Errorf("%s: no obs events were copied into the trace", workload)
		}
	}
}

// TestReferenceIsDirectSolve pins the shared-setup reference the serve
// workloads verify against to serve.DirectSolve itself.
func TestReferenceIsDirectSolve(t *testing.T) {
	keys := tinySizes().churnKeys
	used := map[int]bool{}
	for i := range keys {
		used[i] = true
	}
	ref, err := buildReference(keys, used)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		u, _, err := serve.DirectSolve(k.spec, k.scale, 1e-4, 1000, "fmg", "", "")
		if err != nil {
			t.Fatal(err)
		}
		if want := serve.SolutionHash(u); ref.hash[i] != want {
			t.Errorf("key %v: reference hash %s, DirectSolve %s", k, ref.hash[i], want)
		}
	}
}

// TestRequestSequenceIsStratified checks the shape every run relies on:
// each deck asks for every key once and for one key of every geometry a
// second time, right after the first; each stretch between two returns of
// a geometry holds every other geometry; the same seed gives the same
// sequence.
func TestRequestSequenceIsStratified(t *testing.T) {
	w := serveWorkload{keys: fullSizes().churnKeys, repeat: true}
	reqs := w.requestSequence(3)
	geoms := len(w.keys) / 3
	if want := len(w.keys) + geoms; reqs.deck != want {
		t.Fatalf("deck of %d requests, want %d", reqs.deck, want)
	}
	for at := 0; at+reqs.deck <= len(reqs.seq); at += reqs.deck {
		asked := map[int]int{}
		repeats := map[serve.Spec]int{}
		round := map[serve.Spec]bool{}
		for i, k := range reqs.seq[at : at+reqs.deck] {
			asked[k]++
			g := w.keys[k].spec
			if i > 0 && reqs.seq[at+i-1] == k {
				repeats[g]++
				continue
			}
			if round[g] {
				if len(round) != geoms {
					t.Fatalf("deck at %d: %v returns after %d of %d geometries", at, g, len(round), geoms)
				}
				round = map[serve.Spec]bool{}
			}
			round[g] = true
		}
		if len(asked) != len(w.keys) || len(repeats) != geoms {
			t.Fatalf("deck at %d: %d keys, %d geometries repeated, want %d and %d", at, len(asked), len(repeats), len(w.keys), geoms)
		}
		for g, n := range repeats {
			if n != 1 {
				t.Fatalf("deck at %d: %v repeated %d times", at, g, n)
			}
		}
	}
	again, other := w.requestSequence(3), w.requestSequence(4)
	same := true
	for i := range reqs.seq {
		if reqs.seq[i] != again.seq[i] {
			t.Fatalf("seed 3 twice differs at request %d", i)
		}
		same = same && reqs.seq[i] == other.seq[i]
	}
	if same {
		t.Error("seeds 3 and 4 give the same sequence")
	}
	w.repeat = false
	if plain := w.requestSequence(3); plain.deck != len(w.keys) {
		t.Errorf("deck without repeats has %d requests, want %d", plain.deck, len(w.keys))
	}
}

// TestQuartilesArePythons checks the spread statistic against
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesArePythons(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %g %g median %g", q1, q3, median(v))
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread %g, want 1", got)
	}
	if p := percentile(v, 0.95); p != 10 {
		t.Errorf("p95 of ten values %g, want the maximum", p)
	}
}

// TestCompare builds a run set from a tiny run, compares it with itself
// (must pass), with a copy worse by twice the bound (must regress) and
// with a copy whose runs scatter wider than the bound (unresolved).
func TestCompare(t *testing.T) {
	spec := mustSpec(t)
	res := tinyRun(t, spec, "cube_linear", false)
	mk := func(scale func(m metricSpec, run int) float64) *runSet {
		ws := &workloadSet{EndToEnd: map[string]*series{}}
		for _, m := range spec.EndToEnd {
			s := &series{Unit: m.Unit}
			for run := 0; run < 4; run++ {
				s.Values = append(s.Values, res.Metrics[m.Name].Value*scale(m, run))
			}
			s.Median, s.Spread = median(s.Values), spread(s.Values)
			ws.EndToEnd[m.Name] = s
		}
		return &runSet{Workloads: map[string]*workloadSet{"cube_linear": ws}}
	}
	base := mk(func(metricSpec, int) float64 { return 1 })
	for _, row := range compareSets(spec, base, base) {
		if row.verdict != verdictOK {
			t.Errorf("self-compare: %s is %s", row.metric, row.verdict)
		}
	}
	worse := mk(func(m metricSpec, _ int) float64 {
		if m.Better == "higher" {
			return 1 - 2*m.Bound
		}
		return 1 + 2*m.Bound
	})
	for _, row := range compareSets(spec, base, worse) {
		if row.verdict != verdictRegression {
			t.Errorf("%s worse by %g of bound %g is %s", row.metric, row.worse, row.bound, row.verdict)
		}
	}
	for _, row := range compareSets(spec, worse, base) {
		if row.verdict != verdictOK {
			t.Errorf("an improvement of %s is %s", row.metric, row.verdict)
		}
	}
	noisy := mk(func(_ metricSpec, run int) float64 { return 1 + float64(run) })
	for _, row := range compareSets(spec, base, noisy) {
		if row.verdict != verdictUnresolved {
			t.Errorf("%s with spread %g is %s", row.metric, row.change.Spread, row.verdict)
		}
	}
}
