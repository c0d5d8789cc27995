package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is the share
// of the base median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the one place
// metric names, units and bounds are declared; it emits only what that
// declares.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// nameRE is the shape every workload and metric name must have.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from the current directory, or from its
// parent when the program runs inside bench/ (go test, go run .).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("bench: no BENCHMARK.json here or one level up: %w", firstErr)
}

// metrics returns the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// hasWorkload reports whether name is a declared workload.
func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported number with its unit, the shape the result
// line carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recorder collects the metric values of one run and holds them against
// the declaration: a name the spec lacks, or one set twice, is a bug in
// the benchmark and fails the run.
type recorder struct {
	units map[string]string
	vals  map[string]float64
	err   error
}

// newRecorder accepts exactly the metrics of one run kind.
func newRecorder(specs []metricSpec) *recorder {
	r := &recorder{units: map[string]string{}, vals: map[string]float64{}}
	for _, m := range specs {
		r.units[m.Name] = m.Unit
	}
	return r
}

// set records a value; the first misuse is kept and reported by finish.
func (r *recorder) set(name string, v float64) {
	if _, ok := r.units[name]; !ok {
		r.fail(fmt.Errorf("bench: metric %q is not declared in BENCHMARK.json", name))
		return
	}
	if _, dup := r.vals[name]; dup {
		r.fail(fmt.Errorf("bench: metric %q set twice", name))
		return
	}
	r.vals[name] = v
}

func (r *recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// finish returns every declared metric exactly once. A per-layer metric
// the workload does not exercise reads 0: no calls, no time.
func (r *recorder) finish(requireAll bool) (map[string]metricValue, error) {
	if r.err != nil {
		return nil, r.err
	}
	out := make(map[string]metricValue, len(r.units))
	for name, unit := range r.units {
		v, ok := r.vals[name]
		if !ok && requireAll {
			return nil, fmt.Errorf("bench: metric %q was not measured", name)
		}
		out[name] = metricValue{Value: v, Unit: unit}
	}
	return out, nil
}
