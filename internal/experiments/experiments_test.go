package experiments

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"prometheus"
	"prometheus/internal/graph"
	"prometheus/internal/par"
	"prometheus/internal/perf"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

// tinySpec is the grid the render tests run on: 648 dof, four grids, of
// which the solver folds one.
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

// TestRunLinearSmallest pins the smallest point of the paper series:
// iterations, levels, exact flop counts and the rank model's per-rank
// work, all deterministic.
func TestRunLinearSmallest(t *testing.T) {
	runs, err := series1()
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	if r.Dof != 3000 || r.Free != 2600 || r.Iters != 24 || r.Levels != 3 || r.Lost != 230 {
		t.Fatalf("dof %d free %d iters %d levels %d lost %d, want 3000 2600 24 3 230",
			r.Dof, r.Free, r.Iters, r.Levels, r.Lost)
	}
	if r.SolveFlops != 131876024 || r.SetupFlops != 11056220 {
		t.Fatalf("solve flops %d setup flops %d, want 131876024 11056220", r.SolveFlops, r.SetupFlops)
	}
	for _, c := range []struct {
		name      string
		got, want []int64
	}{
		{"rank flops", r.RankFlops, []int64{77218074, 54657947}},
		{"rank bytes", r.RankBytes, []int64{1488677, 1669717}},
		{"rank msgs", r.RankMsgs, []int64{582, 582}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s %v, want %v", c.name, c.got, c.want)
		}
	}
	// The rank model must conserve work: sum of per-rank flops within 5%
	// of the measured total.
	if ratio := float64(perf.Sum(r.RankFlops)) / float64(r.SolveFlops); ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("rank flops %d vs solve flops %d", perf.Sum(r.RankFlops), r.SolveFlops)
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

// wantLines fails unless every line of want appears in out as a line of
// its own, compared field by field so column padding does not matter.
func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	have := map[string]bool{}
	for _, l := range strings.Split(out, "\n") {
		have[strings.Join(strings.Fields(l), " ")] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("output lacks the line %q", w)
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
	} {
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := b.String()
	wantLines(t, out,
		"3000 2 24 3 57 0.85",                      // Table 2
		"2 2600 2113.398 1.00 1.00 0.85 1.00 1.00", // Figure 11
		"plain MIS (Figure 4) 49 0 49",
		"modified graph (Figure 5-6) 87 38 49",
		"MG-PCG on slab bending: modified-graph hierarchy 42 its (3 levels)",
		"face-blind hierarchy: coarsening collapsed (the coarse vertex set lost a face and could not be remeshed) — exactly the Figure 4 pathology; 1 level(s) built",
	)
	for _, want := range []string{"Table 1", "Table 2", "Figure 9", "Figure 10",
		"Figure 11", "Figure 12", "thin body", "ordering"} {
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
	return RunSeries(1)
})

// TestRunNonlinearTiny pins the tiny crush: Newton and PCG iterations of
// every step.
func TestRunNonlinearTiny(t *testing.T) {
	r, err := tinyNonlinear()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1}}
	if len(r.Stats.Steps) != len(want) {
		t.Fatalf("steps = %d, want %d", len(r.Stats.Steps), len(want))
	}
	for i, ss := range r.Stats.Steps {
		if ss.NewtonIters != len(want[i]) || !slices.Equal(ss.PCGIters, want[i]) {
			t.Fatalf("step %d: %d Newton iterations, PCG %v; want PCG %v", i+1, ss.NewtonIters, ss.PCGIters, want[i])
		}
	}
	if r.Stats.FirstSolveIters != 1 || r.Stats.TotalPCG != 17 || r.Stats.TotalNewton != 17 {
		t.Fatalf("first %d, total PCG %d, total Newton %d; want 1 17 17",
			r.Stats.FirstSolveIters, r.Stats.TotalPCG, r.Stats.TotalNewton)
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
	} {
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := b.String()
	wantLines(t, out,
		"MIS geometric (this paper) 3 12 2.17",
		"smoothed aggregation [25] 2 11 1.59",
		"8 RHS solved with one mesh + matrix setup (96 total PCG its); transient analyses amortize the setup phases exactly as section 6 describes",
		"0.500 38 10", "0.707 46 11", "0.866 52 12", "0.966 102 11",
		"reclassify from grid 2 (paper) 12", "never reclassify 9", "reclassify every grid 10",
		"1/1000 1", "6/1000 12", "24/1000 16", "96/1000 18",
		"FMG (paper) 12", "V-cycle 16",
	)
	for _, want := range []string{"Figure 13", "smoothed aggregation", "amortization",
		"tolerance TOL", "reclassification policy", "block Jacobi density", "multigrid cycle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestHeadlineRenders(t *testing.T) {
	bigger := tinySpec
	bigger.Cfg.CoreElems, bigger.Cfg.OuterElems, bigger.Ranks = 2, 2, 4
	runs, err := runSeries([]SizeSpec{tinySpec, bigger})
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

// TestLevelOwnersFollowFoldedGrids: tinySpec's grid 2 keeps 0.899 of grid
// 1 and is folded, so the rank model chains vertex owners through a grid
// no level stands on; each level's owner list still has that level's
// dimension and names a simulated rank for every dof.
func TestLevelOwnersFollowFoldedGrids(t *testing.T) {
	s := problems.NewSpheresConfig(tinySpec.Cfg)
	solver, err := incrementSolver(s, prometheus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if counts, _ := solver.VertexReduction(); solver.NumLevels() >= len(counts) {
		t.Fatalf("%d levels from grids %v: no grid folded", solver.NumLevels(), counts)
	}
	_, k, r, err := assembleFirstTangent(s)
	if err != nil {
		t.Fatal(err)
	}
	kred, _ := solver.ReduceSystem(k, r)
	mg, err := solver.Preconditioner(kred)
	if err != nil {
		t.Fatal(err)
	}
	owners := levelOwners(solver, graph.RCB(s.Mesh.Coords, tinySpec.Ranks), mg.NumLevels())
	for l, lvl := range mg.Levels {
		if len(owners[l]) != lvl.A.Rows() {
			t.Fatalf("level %d: %d owners for %d dofs", l, len(owners[l]), lvl.A.Rows())
		}
		for _, o := range owners[l] {
			if o < 0 || o >= tinySpec.Ranks {
				t.Fatalf("level %d: owner %d of %d ranks", l, o, tinySpec.Ranks)
			}
		}
	}
}

// TestGhostCountsAreHaloGhosts checks the rank model's ghost counts
// against the halo the simulated product exchanges.
func TestGhostCountsAreHaloGhosts(t *testing.T) {
	b := sparse.NewBuilder(200, 200)
	for i := 0; i < 200; i++ {
		b.Add(i, i, 4)
		b.Add(i, (i+1)%200, -1)
		b.Add(i, i*37%200, -1)
	}
	a := b.Build()
	for _, ranks := range []int{1, 2, 5} {
		owner := make([]int, a.NRows)
		for i := range owner {
			owner[i] = (i * 7 / 3) % ranks
		}
		got, h := ghostCounts(a, owner, ranks), par.NewHalo(a, owner, ranks)
		for r := range got {
			if got[r] != h.GhostCount(r) {
				t.Fatalf("%d ranks: rank %d has %d ghosts, the halo %d", ranks, r, got[r], h.GhostCount(r))
			}
		}
	}
}
