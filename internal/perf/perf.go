// Package perf implements the performance methodology of section 6: the
// decomposition of parallel efficiency into iteration scale efficiency
// e^I_s, flop scale efficiency e^F_s, communication efficiency e_c and load
// balance, plus a machine model calibrated to the paper's hardware (IBM
// PowerPC 604e cluster) that converts measured per-rank flop counts and
// communication volumes into simulated phase times. The parallel runs
// themselves execute on the goroutine communicator of internal/par; this
// package turns their exact counters into the quantities Figures 10-12 and
// Table 2 report.
package perf

import (
	"fmt"
	"strings"
	"time"
)

// Machine is the performance model of one cluster node-processor.
type Machine struct {
	Name string
	// FlopRate is the sustained flop rate of the sparse kernels
	// (flops/second per processor).
	FlopRate float64
	// Latency is the per-message cost in seconds.
	Latency float64
	// Bandwidth is the link bandwidth in bytes/second.
	Bandwidth float64
}

// PaperIBM returns the machine model of the paper's platform: 332 MHz
// PowerPC 604e processors (664 Mflop/s theoretical peak) sustaining
// 36 Mflop/s in sparse matrix-vector products and 34 Mflop/s in the
// multigrid solve, on an SP-class interconnect.
func PaperIBM() Machine {
	return Machine{
		Name:      "IBM PowerPC 604e cluster (SC99)",
		FlopRate:  34e6,
		Latency:   35e-6,
		Bandwidth: 90e6,
	}
}

// PhaseTime converts per-rank counters into the modeled execution time of
// one phase: each rank costs flops/rate + msgs·latency + bytes/bandwidth,
// and the phase completes when the slowest rank does. The average rank
// time is also returned (their ratio is the load balance).
func (m Machine) PhaseTime(flops, msgs, bytes []int64) (tMax, tAvg float64) {
	if len(flops) == 0 {
		return 0, 0
	}
	for i := range flops {
		t := float64(flops[i]) / m.FlopRate
		if msgs != nil {
			t += float64(msgs[i]) * m.Latency
		}
		if bytes != nil {
			t += float64(bytes[i]) / m.Bandwidth
		}
		tAvg += t
		if t > tMax {
			tMax = t
		}
	}
	tAvg /= float64(len(flops))
	return
}

// LoadBalance returns the average-to-maximum work ratio e_l (section 6).
func LoadBalance(work []int64) float64 {
	if len(work) == 0 {
		return 1
	}
	var sum, max int64
	for _, w := range work {
		sum += w
		if w > max {
			max = w
		}
	}
	if max == 0 {
		return 1
	}
	return float64(sum) / float64(len(work)) / float64(max)
}

// Sum totals a counter slice.
func Sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// Efficiencies is the section 6 decomposition for one scaled run against
// the base run.
type Efficiencies struct {
	EIs   float64 // iteration scale efficiency: iters(base)/iters(P)
	EFs   float64 // flop scale efficiency: flops/unknown/iteration ratio
	Ec    float64 // communication efficiency: modeled flop-rate ratio
	Load  float64 // load balance of the scaled run
	Total float64 // e ≈ EIs·EFs·Ec
}

// Decompose computes the decomposition. base and run describe the two ends
// of the scaled study: iteration counts, total solve flops, unknown counts,
// and modeled (or measured) flop rates per processor.
func Decompose(baseIters, runIters int, baseFlops, runFlops int64,
	baseN, runN int, baseProcs, runProcs int,
	baseRatePerProc, runRatePerProc float64, load float64) Efficiencies {
	e := Efficiencies{Load: load}
	if runIters > 0 {
		e.EIs = float64(baseIters) / float64(runIters)
	}
	// Flops per unknown per iteration.
	fb := float64(baseFlops) / float64(baseN) / float64(baseIters)
	fr := float64(runFlops) / float64(runN) / float64(runIters)
	if fr > 0 {
		e.EFs = fb / fr
	}
	if baseRatePerProc > 0 {
		e.Ec = runRatePerProc / baseRatePerProc
	}
	e.Total = e.EIs * e.EFs * e.Ec
	return e
}

// Phases accumulates named wall-clock phase timings (the Figure 10
// component breakdown).
type Phases struct {
	order []string
	Wall  map[string]time.Duration
}

// NewPhases returns an empty phase table.
func NewPhases() *Phases {
	return &Phases{Wall: map[string]time.Duration{}}
}

// Time runs fn, recording its wall-clock duration under name (accumulates
// across calls).
func (p *Phases) Time(name string, fn func()) {
	start := time.Now()
	fn()
	p.Add(name, time.Since(start))
}

// Add accumulates a duration under name.
func (p *Phases) Add(name string, d time.Duration) {
	if _, ok := p.Wall[name]; !ok {
		p.order = append(p.order, name)
	}
	p.Wall[name] += d
}

// Names returns the phase names in first-use order.
func (p *Phases) Names() []string { return p.order }

// Table renders headers and rows as an aligned text table (the prombench
// output format).
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
