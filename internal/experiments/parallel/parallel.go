// Package parallel holds the paper's experiments on the simulated
// parallel runtime (internal/par): the section 4.2 parallel MIS study and
// the measured halo-SpMV efficiency behind promsolve -profile. They live
// apart from internal/experiments so that the library's experiments, and
// the benchmark that imports them, do not link the simulator.
package parallel

import (
	"fmt"
	"io"

	"prometheus/internal/graph"
	"prometheus/internal/mesh"
	"prometheus/internal/obs"
	"prometheus/internal/par"
	"prometheus/internal/perf"
	"prometheus/internal/sparse"
	"prometheus/internal/topo"
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
// entries); y is shared, each rank writing its own rows. Resets the obs
// recording: callers wanting the preceding profile snapshot it first.
func haloPhase(a *sparse.CSR, owner []int, ranks, iters int) (flops, msgs, bytes []int64, err error) {
	obs.Reset()
	h := par.NewHalo(a, owner, ranks)
	xs := make([][]float64, ranks)
	for r := range xs {
		xs[r] = make([]float64, a.NRows)
	}
	for i, r := range owner {
		xs[r][i] = float64(i%13) - 6
	}
	y := make([]float64, a.NRows)
	c := par.NewComm(ranks)
	for it := 0; it < iters; it++ {
		h.MulVec(c, a, xs, y)
	}
	p := obs.Snapshot()
	flops, msgs, bytes, ok := p.PerRank("par.rank")
	if !ok {
		return nil, nil, nil, fmt.Errorf("parallel: halo phase recorded no par.rank counters")
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
		return nil, fmt.Errorf("parallel: MeasuredHaloEfficiency needs obs enabled")
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

// ParallelMISStudy reports the section 4.2 algorithm across rank counts:
// set sizes, determinism and the MIS invariants.
func ParallelMISStudy(w io.Writer) error {
	m := mesh.StructuredHex(8, 8, 8, 1, 1, 1, nil)
	g := m.NodeGraph()
	cls := topo.Reclassify(m, topo.DefaultTOL)
	order := graph.RankedOrder(cls.Rank, graph.NaturalOrder(g.N))
	serial := graph.MIS(cls.ModifiedGraph(g), order, cls.Rank, cls.Immortal())
	rows := [][]string{{"serial", fmt.Sprintf("%d", len(serial)), "-", "yes"}}
	for _, p := range []int{2, 4, 8, 16} {
		owner := graph.RCB(m.Coords, p)
		mg := cls.ModifiedGraph(g)
		a := par.ParallelMIS(par.NewComm(p), mg, owner, order, cls.Rank, cls.Immortal())
		b := par.ParallelMIS(par.NewComm(p), mg, owner, order, cls.Rank, cls.Immortal())
		det := "yes"
		if len(a) != len(b) {
			det = "NO"
		} else {
			for i := range a {
				if a[i] != b[i] {
					det = "NO"
					break
				}
			}
		}
		maximal := "yes"
		if !graph.IsMaximal(mg, a) {
			maximal = "NO"
		}
		rows = append(rows, []string{
			fmt.Sprintf("parallel p=%d", p),
			fmt.Sprintf("%d", len(a)), det, maximal,
		})
	}
	fmt.Fprintln(w, "Section 4.2 — parallel MIS across rank counts (9^3 hex node graph, modified graph + ranks)")
	fmt.Fprint(w, perf.Table([]string{"variant", "|MIS|", "deterministic", "maximal"}, rows))
	return nil
}
