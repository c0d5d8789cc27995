package experiments

import (
	"fmt"
	"io"
	"strings"

	"prometheus"
	"prometheus/internal/material"
	"prometheus/internal/perf"
	"prometheus/internal/problems"
)

// ScaledYieldStress is problems.ScaledYieldStress, the yield stress of the
// reduced-layer geometry; the benchmark harness reads it from here.
func ScaledYieldStress(cfg problems.SpheresConfig) float64 { return problems.ScaledYieldStress(cfg) }

// NonlinearRun records one size of the Figure 13 study.
type NonlinearRun struct {
	Spec  SizeSpec
	Dof   int
	Stats *prometheus.NewtonStats
}

// RunNonlinear executes the full nonlinear crush for one size: steps load
// steps of the displacement schedule with the paper's Newton strategy.
func RunNonlinear(spec SizeSpec, steps int) (*NonlinearRun, error) {
	s := problems.NewSpheresConfig(spec.Cfg)
	// Keep the yield regime of the paper's shell thickness (see
	// problems.ScaledYieldStress); for 17-layer runs this is exactly
	// Table 1.
	s.Models[material.MatHard] = material.J2Plasticity{
		E: 1, Nu: 0.3, SigmaY: problems.ScaledYieldStress(spec.Cfg), H: 0.002,
	}
	solver, err := prometheus.NewSolver(s.Mesh, s.Cons, prometheus.Options{})
	if err != nil {
		return nil, err
	}
	p := prometheus.NewProblem(s.Mesh, s.Models, true)
	_, stats, err := solver.SolveNonlinear(p, prometheus.NewtonConfig{
		Steps: steps, MaxNewton: 30, MaxPCG: 2000,
	}, material.MatHard)
	if err != nil {
		return nil, err
	}
	return &NonlinearRun{Spec: spec, Dof: s.Mesh.NumDOF(), Stats: stats}, nil
}

// Fig13 runs the nonlinear study across sizes and prints both panels:
// the percentage of hard-shell integration points in the plastic state per
// load step (left), and the solver iterations per Newton solve stacked per
// step (right), plus the Table 2 nonlinear totals.
func Fig13(w io.Writer, maxK, steps int) error {
	var runs []*NonlinearRun
	for _, spec := range Series(maxK) {
		r, err := RunNonlinear(spec, steps)
		if err != nil {
			return fmt.Errorf("fig13 %s: %w", spec.Name, err)
		}
		runs = append(runs, r)
	}
	return renderFig13(w, runs, steps)
}

func renderFig13(w io.Writer, runs []*NonlinearRun, steps int) error {
	// Left panel: plastic percentage per step.
	headers := []string{"dof \\ step"}
	for s := 1; s <= steps; s++ {
		headers = append(headers, fmt.Sprintf("%d", s))
	}
	rows := [][]string{}
	for _, r := range runs {
		row := []string{fmt.Sprintf("%d", r.Dof)}
		for _, ss := range r.Stats.Steps {
			row = append(row, fmt.Sprintf("%.1f%%", 100*ss.PlasticFrac))
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(w, "Figure 13 (left) — % of hard-shell integration points in plastic state per load step (paper: grows to >24%)")
	fmt.Fprint(w, perf.Table(headers, rows))

	// Right panel: PCG iterations per Newton solve, stacked per step.
	fmt.Fprintln(w, "\nFigure 13 (right) — PCG iterations per Newton solve, per load step")
	rows = rows[:0]
	for _, r := range runs {
		for si, ss := range r.Stats.Steps {
			var parts []string
			for _, its := range ss.PCGIters {
				parts = append(parts, fmt.Sprintf("%d", its))
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", r.Dof),
				fmt.Sprintf("%d", si+1),
				fmt.Sprintf("%d", ss.NewtonIters),
				strings.Join(parts, "+"),
				fmt.Sprintf("%d", sum(ss.PCGIters)),
			})
		}
	}
	fmt.Fprint(w, perf.Table([]string{"dof", "step", "newton its", "PCG per solve", "PCG total"}, rows))

	// Table 2 nonlinear totals.
	fmt.Fprintln(w, "\nTable 2 (nonlinear totals) — paper: total PCG ~3000-4100, Newton ~62-70, roughly constant across sizes")
	rows = rows[:0]
	for _, r := range runs {
		avg := 0.0
		if r.Stats.TotalNewton > 0 {
			avg = float64(r.Stats.TotalPCG) / float64(r.Stats.TotalNewton)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Dof),
			fmt.Sprintf("%d", r.Stats.FirstSolveIters),
			fmt.Sprintf("%d", r.Stats.TotalPCG),
			fmt.Sprintf("%d", r.Stats.TotalNewton),
			fmt.Sprintf("%.1f", avg),
			fmt.Sprintf("%.1f%%", 100*r.Stats.Steps[len(r.Stats.Steps)-1].PlasticFrac),
		})
	}
	fmt.Fprint(w, perf.Table([]string{
		"equations", "1st solve PCG", "total PCG", "total Newton", "avg PCG/solve", "final plastic"}, rows))
	return nil
}

func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}
