package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"prometheus/internal/obs"
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's origin; Parent indexes the span that caused
// it (-1 for a root); ID is the rep or request the span belongs to, shared
// by every span of that operation. Src tells the benchmark's own spans
// ("bench") from events copied out of internal/obs ("obs") and intervals
// reconstructed from a server's reply ("reply").
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	ID     int
	Src    string
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory; nothing is written until the run ends.
// It is used from one goroutine.
type tracer struct {
	origin time.Time
	id     int
	spans  []span
	stack  []int
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: t.id, Src: "bench", Start: time.Since(t.origin)})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open one, and returns
// its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[i].dur()
}

// addReply appends an interval a server's reply reported, under parent.
func (t *tracer) addReply(name string, parent int, start, end time.Duration) {
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: t.id, Src: "reply", Start: start, End: end})
}

// descendantTotal sums the durations of the benchmark's own spans called
// name below root, however deep. Spans adopted from obs are left out: obs
// names some of its events as the benchmark names the call around them.
func (t *tracer) descendantTotal(root int, name string) (total time.Duration, calls int) {
	for i, s := range t.spans {
		if s.Name != name || s.Src != "bench" {
			continue
		}
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			if p == root {
				total += t.spans[i].dur()
				calls++
				break
			}
		}
	}
	return total, calls
}

// childrenCover returns how much of span i its direct children account
// for; self time is the span's duration minus this.
func (t *tracer) childrenCover(i int) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent == i {
			d += s.dur()
		}
	}
	return d
}

// alignTol is how far the alignment of the two clocks is trusted. obs
// stamps spans against its own epoch, recovered here as the snapshot
// instant minus the profile's TotalNs; the instant is read just before
// the snapshot call, so adopted spans sit a few tens of nanoseconds early.
const alignTol = time.Microsecond

// adoptObs copies the spans internal/obs captured since its last reset
// into the rep rooted at root and rebuilds the rep's tree by containment,
// so that an obs event becomes the child of the innermost span around it
// and a benchmark span recorded inside an obs event (an Apply inside
// krylov.fpcg) becomes that event's child. An obs span that seems to start
// within alignTol before the benchmark span wrapped around it is moved to
// that span's start, and every span is clipped to its parent, so the
// alignment error can never make a child outlast its parent or two
// siblings overlap. The rep's spans are the ones recorded after root.
func (t *tracer) adoptObs(p *obs.Profile, snapshotAt time.Time, root int) {
	epoch := snapshotAt.Add(-time.Duration(p.TotalNs)).Sub(t.origin)
	first := len(t.spans)
	bench := t.spans[root+1 : first] // in begin order, so sorted by start
	for _, o := range p.Spans {
		start := epoch + time.Duration(o.StartNs)
		end := start + time.Duration(o.DurNs)
		j := sort.Search(len(bench), func(j int) bool { return bench[j].Start > start })
		if j < len(bench) && bench[j].Start-start <= alignTol && bench[j].End >= end-alignTol {
			start = bench[j].Start
		}
		t.spans = append(t.spans, span{Name: o.Name, Src: "obs", ID: t.spans[root].ID, Start: start, End: end})
	}
	idx := make([]int, 0, len(t.spans)-root-1)
	for i := root + 1; i < len(t.spans); i++ {
		idx = append(idx, i)
	}
	// Start order; on a tie the longer span is the outer one, and of two
	// equal spans the benchmark's (recorded first) wraps the obs event.
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := t.spans[idx[a]], t.spans[idx[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	open := []int{root}
	for _, i := range idx {
		s := &t.spans[i]
		for len(open) > 1 && t.spans[open[len(open)-1]].End <= s.Start {
			open = open[:len(open)-1]
		}
		s.Parent = open[len(open)-1]
		par := t.spans[s.Parent]
		if s.Start < par.Start {
			s.Start = par.Start
		}
		if s.End > par.End {
			s.End = par.End
		}
		if s.End < s.Start {
			s.End = s.Start
		}
		open = append(open, i)
	}
}

// traceEvent is one Chrome trace_event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceFile is the Chrome trace document (chrome://tracing, Perfetto).
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata"`
}

// writeTrace writes spans to dir/<workload>.trace.json. Each event carries
// its own index, its parent's, the operation id and its self time, so the
// tree can be rebuilt from the file.
func writeTrace(dir, workload string, spans []span, meta map[string]any) (string, error) {
	cover := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			cover[s.Parent] += s.dur()
		}
	}
	doc := traceFile{DisplayTimeUnit: "ms", Metadata: meta, TraceEvents: make([]traceEvent, 0, len(spans))}
	for i, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: s.Name, Cat: s.Src, Ph: "X", Pid: 0, Tid: 0,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{
				"span": i, "parent": s.Parent, "op": s.ID,
				"self_us": float64(s.dur()-cover[i]) / 1e3,
			},
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("bench: encode trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", fmt.Errorf("bench: write trace: %w", err)
	}
	return path, nil
}
