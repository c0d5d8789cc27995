package experiments

import (
	"fmt"

	"prometheus/internal/obs"
	"prometheus/internal/par"
	"prometheus/internal/perf"
	"prometheus/internal/sparse"
)

// ObsEfficiency is the section 6 efficiency decomposition of a measured
// parallel halo-SpMV phase: per-rank flop/message/byte counters come
// from the obs par.rank event (measured, not modeled), and the machine
// model converts them into e_c and load-balance figures.
type ObsEfficiency struct {
	Ranks int
	Flops int64
	Msgs  int64
	Bytes int64
	// Load is the average-to-max ratio of measured per-rank flops.
	Load float64
	// Eff is the full decomposition against the 1-rank base run.
	Eff perf.Efficiencies
	// RatePerProc is the modeled per-processor flop rate given the
	// measured counters (flops/s).
	RatePerProc float64
}

// haloPhase runs iters halo SpMV products over a on ranks simulated
// ranks and returns the measured per-rank counters from the obs
// par.rank event. Each rank gets a private x copy (valid on owned
// entries); y is shared and written without conflict. Resets the obs
// recording: callers wanting the preceding profile snapshot it first.
func haloPhase(a *sparse.CSR, owner []int, ranks, iters int) (flops, msgs, bytes []int64, err error) {
	obs.Reset()
	h := par.NewHalo(a, owner, ranks)
	x := make([]float64, a.NRows)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	y := make([]float64, a.NRows)
	c := par.NewComm(ranks)
	c.Run(func(r *par.Rank) {
		xl := make([]float64, len(x))
		for i := range xl {
			if owner[i] == r.ID() {
				xl[i] = x[i]
			}
		}
		for it := 0; it < iters; it++ {
			h.MulVec(r, a, xl, y)
		}
	})
	p := obs.Snapshot()
	flops, msgs, bytes, ok := p.PerRank("par.rank")
	if !ok {
		return nil, nil, nil, fmt.Errorf("experiments: halo phase recorded no par.rank counters")
	}
	return flops, msgs, bytes, nil
}

// MeasuredHaloEfficiency runs the measured parallel halo-SpMV phase on
// 1 rank (base) and on ranks ranks, reading per-rank flop/message/byte
// counters from the obs par.rank event, and feeds them through the
// perf efficiency decomposition under the given machine model. This is
// the measured-counter bridge: e_c and the load balance come from
// counted traffic, not from the analytic communication model. Requires
// obs to be enabled; resets recorded obs data.
func MeasuredHaloEfficiency(a *sparse.CSR, owner []int, ranks, iters int, machine perf.Machine) (*ObsEfficiency, error) {
	if !obs.On() {
		return nil, fmt.Errorf("experiments: MeasuredHaloEfficiency needs obs enabled")
	}
	baseOwner := make([]int, a.NRows)
	bf, bm, bb, err := haloPhase(a, baseOwner, 1, iters)
	if err != nil {
		return nil, err
	}
	rf, rm, rb, err := haloPhase(a, owner, ranks, iters)
	if err != nil {
		return nil, err
	}
	baseMax, _ := machine.PhaseTime(bf, bm, bb)
	runMax, _ := machine.PhaseTime(rf, rm, rb)
	eff := &ObsEfficiency{
		Ranks: ranks,
		Flops: perf.Sum(rf),
		Msgs:  perf.Sum(rm),
		Bytes: perf.Sum(rb),
		Load:  perf.LoadBalance(rf),
	}
	baseRate := 0.0
	if baseMax > 0 {
		baseRate = float64(perf.Sum(bf)) / baseMax
	}
	if runMax > 0 {
		eff.RatePerProc = float64(perf.Sum(rf)) / runMax / float64(ranks)
	}
	eff.Eff = perf.Decompose(iters, iters, perf.Sum(bf), perf.Sum(rf),
		a.NRows, a.NRows, 1, ranks, baseRate, eff.RatePerProc, eff.Load)
	return eff, nil
}
