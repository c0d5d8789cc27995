package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"prometheus/internal/multigrid"
	"prometheus/internal/perf"
	"prometheus/internal/problems"
)

// tinySpec is the grid the render tests run on: 648 dof, four levels.
// prombench runs the same report bodies at the paper-series sizes.
var tinySpec = SizeSpec{
	Name:  "tiny",
	Cfg:   problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 1, OuterElems: 1},
	Ranks: 2,
}

func TestSeriesSpecs(t *testing.T) {
	specs := Series(3)
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	prevDof := 0
	for _, s := range specs {
		n := s.Cfg.NumRadial()
		dof := 3 * (n + 1) * (n + 1) * (n + 1)
		if dof <= prevDof {
			t.Fatal("series must grow")
		}
		prevDof = dof
		// Constant dof per rank within a factor of two.
		perRank := float64(dof) / float64(s.Ranks)
		if perRank < TargetDofPerRank/2 || perRank > 2*TargetDofPerRank {
			t.Fatalf("%s: dof/rank = %v", s.Name, perRank)
		}
	}
}

func TestRunLinearSmallest(t *testing.T) {
	runs, err := series1()
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	if r.Iters < 5 || r.Iters > 100 {
		t.Fatalf("iters = %d", r.Iters)
	}
	if r.Levels < 3 {
		t.Fatalf("levels = %d", r.Levels)
	}
	// The rank model must conserve work: sum of per-rank flops within 1%
	// of the measured total.
	var sum int64
	for _, f := range r.RankFlops {
		sum += f
	}
	if ratio := float64(sum) / float64(r.SolveFlops); ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("rank flops %d vs solve flops %d", sum, r.SolveFlops)
	}
	if r.LoadBalance() <= 0.3 || r.LoadBalance() > 1 {
		t.Fatalf("load balance = %v", r.LoadBalance())
	}
	// With 2 ranks there must be halo traffic.
	if perf.Sum(r.RankBytes) == 0 {
		t.Fatal("no modeled communication")
	}
	if r.ModelSolveMax <= 0 || r.ModelMflops <= 0 {
		t.Fatal("machine model produced no time")
	}
	for _, phase := range []string{"partition", "mesh setup", "fine grid", "matrix setup", "solve"} {
		if r.Wall[phase] <= 0 {
			t.Fatalf("phase %q not timed", phase)
		}
	}
}

func TestReportsRender(t *testing.T) {
	runs, err := series1()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for name, fn := range map[string]func() error{
		"table1":   func() error { return Table1(&b) },
		"table2":   func() error { return Table2(&b, runs) },
		"fig9":     func() error { return Fig9(&b) },
		"fig10":    func() error { return Fig10(&b, runs) },
		"fig11":    func() error { return Fig11(&b, runs) },
		"fig12":    func() error { return Fig12(&b, runs) },
		"thinbody": func() error { return ThinBody(&b) },
		"ordering": func() error { return Ordering(&b) },
		"parmis":   func() error { return ParallelMISStudy(&b) },
	} {
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := b.String()
	for _, want := range []string{"Table 1", "Table 2", "Figure 9", "Figure 10",
		"Figure 11", "Figure 12", "thin body", "ordering", "parallel"} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestScaledYieldStress(t *testing.T) {
	// The paper's own geometry gets the Table 1 value.
	full := problems.SpheresConfig{Layers: problems.NumLayers}
	if got := ScaledYieldStress(full); got != 1e-3 {
		t.Fatalf("17-layer yield = %v", got)
	}
	// Thicker shells get proportionally lower yield stresses.
	small := problems.SpheresConfig{Layers: 5}
	if got := ScaledYieldStress(small); got >= 1e-3 || got <= 1e-4 {
		t.Fatalf("5-layer yield = %v", got)
	}
}

// tinyNonlinear is a three-step crush run once for the tests that check
// its statistics and its rendering, on a grid a size below tinySpec (375
// dof): a crush costs some twenty linear solves. newton's own tests cover
// the solver at 1536 dof.
var tinyNonlinear = sync.OnceValues(func() (*NonlinearRun, error) {
	return RunNonlinear(SizeSpec{
		Name: "tiny",
		Cfg:  problems.SpheresConfig{Layers: 2, ElemsPerLayer: 1, CoreElems: 1, OuterElems: 1},
	}, 3)
})

// series1 is the smallest point of the paper series (3000 dof), run once
// for the tests that check the run and those that render it.
var series1 = sync.OnceValues(func() ([]*LinearRun, error) {
	return RunSeries(1, multigrid.Options{})
})

func TestRunNonlinearTiny(t *testing.T) {
	r, err := tinyNonlinear()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stats.Steps) != 3 {
		t.Fatalf("steps = %d", len(r.Stats.Steps))
	}
	if r.Stats.TotalNewton < 3 || r.Stats.TotalPCG < r.Stats.TotalNewton {
		t.Fatalf("stats = %+v", r.Stats)
	}
}

func TestHeadlineNeedsTwoRuns(t *testing.T) {
	var b bytes.Buffer
	if err := Headline(&b, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSlowReportsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nl, err := tinyNonlinear()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	cfg := tinySpec.Cfg
	for name, fn := range map[string]func() error{
		"fig13":      func() error { return renderFig13(&b, []*NonlinearRun{nl}, 3) },
		"amg":        func() error { return amgCompare(&b, cfg) },
		"phases":     func() error { return amortization(&b, cfg) },
		"abl-tol":    func() error { return ablationTOL(&b, cfg) },
		"abl-recl":   func() error { return ablationReclassify(&b, cfg) },
		"abl-blocks": func() error { return ablationBlocks(&b, cfg) },
		"abl-cycle":  func() error { return ablationCycle(&b, cfg) },
		"abl-krylov": func() error { return ablationKrylov(&b, cfg) },
	} {
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := b.String()
	for _, want := range []string{"Figure 13", "smoothed aggregation", "amortization",
		"tolerance TOL", "reclassification policy", "block Jacobi density", "multigrid cycle", "Krylov"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestHeadlineRenders(t *testing.T) {
	bigger := tinySpec
	bigger.Cfg.CoreElems, bigger.Cfg.OuterElems, bigger.Ranks = 2, 2, 4
	runs, err := runSeries([]SizeSpec{tinySpec, bigger}, multigrid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := Headline(&b, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "parallel efficiency") {
		t.Fatal("headline missing")
	}
	// Fig12 too (uses the same runs).
	if err := Fig12(&b, runs); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	runs, err := series1()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteSeriesCSV(&b, runs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "dof,free_dof,ranks") {
		t.Fatalf("header = %q", lines[0])
	}
	if err := WriteSeriesCSV(&b, nil); err == nil {
		t.Fatal("expected error on empty runs")
	}
}
