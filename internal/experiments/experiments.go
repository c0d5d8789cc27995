package experiments

import (
	"fmt"
	"io"
	"time"

	"prometheus/internal/core"
	"prometheus/internal/material"
	"prometheus/internal/perf"
	"prometheus/internal/problems"
)

// fmtDur renders a duration in milliseconds.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// RunSeries executes the scaled linear study once and reuses it across the
// Figure 10/11/12 and Table 2 reports.
func RunSeries(maxK int) ([]*LinearRun, error) {
	return runSeries(Series(maxK))
}

func runSeries(specs []SizeSpec) ([]*LinearRun, error) {
	machine := perf.PaperIBM()
	var runs []*LinearRun
	for _, spec := range specs {
		r, err := RunLinear(spec, machine)
		if err != nil {
			return nil, fmt.Errorf("series %s: %w", spec.Name, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// Table1 verifies the Table 1 material constitution with uniaxial and shear
// probes of both materials.
func Table1(w io.Writer) error {
	db := material.Database()
	soft := db[material.MatSoft]
	hard := db[material.MatHard]
	rows := [][]string{}
	probe := func(name string, m material.Model, eps material.Voigt) {
		sig, _, st := m.Update(material.State{}, eps)
		rows = append(rows, []string{
			name, m.Name(),
			fmt.Sprintf("%.3g", eps[0]), fmt.Sprintf("%.3g", eps[3]),
			fmt.Sprintf("%.4g", sig[0]), fmt.Sprintf("%.4g", sig[3]),
			fmt.Sprintf("%v", st.Plastic),
		})
	}
	probe("soft uniaxial", soft, material.Voigt{0.01, -0.0049, -0.0049})
	probe("soft shear", soft, material.Voigt{0, 0, 0, 0.02})
	probe("hard elastic", hard, material.Voigt{0.0005, -0.00015, -0.00015})
	probe("hard yielding", hard, material.Voigt{0, 0, 0, 0.01})
	fmt.Fprintln(w, "Table 1 — material constitution probes (E_soft=1e-4 nu=0.49; E_hard=1 nu=0.3 sigma_y=1e-3 H=0.002E)")
	fmt.Fprint(w, perf.Table(
		[]string{"probe", "model", "eps_xx", "gamma_xy", "sigma_xx", "tau_xy", "plastic"}, rows))
	return nil
}

// Table2 reports the scaled iteration study: MG-preconditioned CG
// iterations of the first linear solve and the modeled aggregate Mflop
// rate, per problem size (the linear-solve half of the paper's Table 2;
// the nonlinear totals come from Fig13).
func Table2(w io.Writer, runs []*LinearRun) error {
	rows := [][]string{}
	for _, r := range runs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Dof),
			fmt.Sprintf("%d", r.Spec.Ranks),
			fmt.Sprintf("%d", r.Iters),
			fmt.Sprintf("%d", r.Levels),
			fmt.Sprintf("%.0f", r.ModelMflops),
			fmt.Sprintf("%.2f", r.LoadBalance()),
		})
	}
	fmt.Fprintln(w, "Table 2 — scaled first linear solve (paper: 29, 27, 22, 20, 20, ... iterations; flat)")
	fmt.Fprint(w, perf.Table(
		[]string{"equations", "ranks", "MG-PCG iters (rtol=1e-4)", "levels", "model Mflop/s", "load bal"}, rows))
	return nil
}

// Fig9 reports the model-problem family: dof counts of the paper geometry
// (17 layers) and of the reduced scaling series.
func Fig9(w io.Writer) error {
	fmt.Fprintln(w, "Figure 9 — concentric spheres model problem (octant, 17 alternating layers)")
	rows := [][]string{}
	for k := 1; k <= 3; k++ {
		cfg := problems.SpheresConfig{Layers: problems.NumLayers, ElemsPerLayer: k, CoreElems: 3 * k, OuterElems: 3 * k}
		n := cfg.NumRadial()
		dof := 3 * (n + 1) * (n + 1) * (n + 1)
		rows = append(rows, []string{
			fmt.Sprintf("17 layers, k=%d", k),
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", n*n*n), fmt.Sprintf("%d", dof),
		})
	}
	paperDofs, paperProcs := problems.PaperSizes()
	for i := range paperDofs {
		if i >= 3 {
			break
		}
		rows = append(rows, []string{
			fmt.Sprintf("paper col %d", i+1), "-", "-",
			fmt.Sprintf("%d (on %d procs)", paperDofs[i], paperProcs[i]),
		})
	}
	fmt.Fprint(w, perf.Table([]string{"configuration", "n radial", "elements", "dof"}, rows))
	s := problems.NewSpheresConfig(seriesCfg(1))
	fmt.Fprintf(w, "reduced series base: %d elements, %d dof, hard fraction %.2f\n",
		s.Mesh.NumElems(), s.Mesh.NumDOF(), s.HardFraction())
	return nil
}

// Fig10 prints the Figure 10 phase breakdown: wall-clock component times of
// the scaled runs (left: solve phases; right: end-to-end components).
func Fig10(w io.Writer, runs []*LinearRun) error {
	rows := [][]string{}
	for _, r := range runs {
		total := r.Wall["partition"] + r.Wall["mesh setup"] + r.Wall["fine grid"] +
			r.Wall["matrix setup"] + r.Wall["solve"]
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Dof),
			fmt.Sprintf("%d", r.Spec.Ranks),
			fmtDur(r.Wall["partition"]),
			fmtDur(r.Wall["mesh setup"]),
			fmtDur(r.Wall["fine grid"]),
			fmtDur(r.Wall["matrix setup"]),
			fmtDur(r.Wall["solve"]),
			fmtDur(total),
			fmt.Sprintf("%.1f", r.ModelSolveMax*1000),
			fmt.Sprintf("%d", r.Iters),
		})
	}
	fmt.Fprintln(w, "Figure 10 — component times per scaled run (wall ms; modeled solve = cluster machine model)")
	fmt.Fprint(w, perf.Table([]string{
		"dof", "ranks", "partition(Athena)", "mesh setup(Prometheus)", "fine grid(FEAP)",
		"matrix setup(Epimetheus)", "solve(PETSc)", "end-to-end", "model solve", "iters"}, rows))
	return nil
}

// Fig11 prints the efficiency decomposition: flop-scale efficiency
// (flops/unknown/iteration, left panel) and communication/flop-rate
// efficiency (right panel), relative to the base run.
func Fig11(w io.Writer, runs []*LinearRun) error {
	if len(runs) == 0 {
		return nil
	}
	base := runs[0]
	rows := [][]string{}
	for _, r := range runs {
		e := r.efficiencies(base)
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Spec.Ranks),
			fmt.Sprintf("%d", r.Free),
			fmt.Sprintf("%.3f", float64(r.SolveFlops)/float64(r.Free)/float64(r.Iters)),
			fmt.Sprintf("%.2f", e.EFs),
			fmt.Sprintf("%.2f", e.Ec),
			fmt.Sprintf("%.2f", e.Load),
			fmt.Sprintf("%.2f", e.EIs),
			fmt.Sprintf("%.2f", e.Total),
		})
	}
	fmt.Fprintln(w, "Figure 11 — efficiency decomposition vs base run (paper: e^F_s > 1 (super-linear), e_c -> ~0.6)")
	fmt.Fprint(w, perf.Table([]string{
		"ranks", "free dof", "flops/unknown/iter", "e^F_s", "e_c", "load bal", "e^I_s", "total e"}, rows))
	return nil
}

// Fig12 prints component efficiencies across the series using the paper's
// normalization e = (base_ranks/p)·(T(base)/T(p))·(N(p)/N(base)).
func Fig12(w io.Writer, runs []*LinearRun) error {
	if len(runs) == 0 {
		return nil
	}
	base := runs[0]
	// Wall clocks are single-process here, so the meaningful wall-time
	// efficiency is work scaling — (T_base/T_run)·(N_run/N_base), 1.0 for
	// an O(N) component. The modeled solve column uses the paper's
	// parallel normalization (base_ranks/p)·(T_base/T_p)·(N_p/N_base).
	eff := func(tBase, tRun time.Duration, r *LinearRun) string {
		if tRun == 0 {
			return "-"
		}
		e := (float64(tBase) / float64(tRun)) * (float64(r.Free) / float64(base.Free))
		return fmt.Sprintf("%.2f", e)
	}
	rows := [][]string{}
	for _, r := range runs {
		var modelEff string
		if r.ModelSolveMax > 0 {
			e := float64(base.Spec.Ranks) / float64(r.Spec.Ranks) *
				(base.ModelSolveMax / r.ModelSolveMax) *
				(float64(r.Free) / float64(base.Free))
			modelEff = fmt.Sprintf("%.2f", e)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Spec.Ranks),
			modelEff,
			eff(base.Wall["solve"], r.Wall["solve"], r),
			eff(base.Wall["matrix setup"], r.Wall["matrix setup"], r),
			eff(base.Wall["fine grid"], r.Wall["fine grid"], r),
			eff(base.Wall["mesh setup"], r.Wall["mesh setup"], r),
		})
	}
	fmt.Fprintln(w, "Figure 12 — component efficiencies: modeled solve uses the paper normalization; wall columns are serial work scaling (1.0 = O(N))")
	fmt.Fprint(w, perf.Table([]string{
		"ranks", "solve (model)", "solve (wall O(N))", "matrix setup", "fine grid", "mesh setup"}, rows))
	return nil
}

// Headline reports the section 7 headline: parallel efficiency of the solve
// phase at the largest configuration (paper: ~59-62% at 960 processors).
func Headline(w io.Writer, runs []*LinearRun) error {
	if len(runs) < 2 {
		return fmt.Errorf("experiments: need at least two runs")
	}
	base := runs[0]
	last := runs[len(runs)-1]
	// Parallel efficiency of the flop rate (the paper's 62%/59% figure).
	ec := last.RatePerProc() / base.RatePerProc()
	fmt.Fprintf(w, "Headline — modeled flop-rate parallel efficiency at %d ranks vs %d ranks: %.0f%% (paper: ~60%% at 960 vs 2)\n",
		last.Spec.Ranks, base.Spec.Ranks, 100*ec)
	return nil
}

// Fig7 reports the hierarchy statistics behind Figure 7: per-level vertex
// and element counts and reduction ratios for the model problem.
func Fig7(w io.Writer) error {
	s := problems.NewSpheresConfig(seriesCfg(2))
	h, err := core.Coarsen(s.Mesh, core.Options{})
	if err != nil {
		return err
	}
	rows := [][]string{}
	counts, ratios := h.VertexReduction()
	for l, g := range h.Grids {
		ratio := "-"
		if l > 0 {
			ratio = fmt.Sprintf("%.3f", ratios[l-1])
		}
		surf := 0
		for _, r := range g.Class.Rank {
			if r > 0 {
				surf++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", l),
			fmt.Sprintf("%d", counts[l]),
			fmt.Sprintf("%d", g.Mesh.NumElems()),
			ratio,
			fmt.Sprintf("%.2f", float64(surf)/float64(counts[l])),
			fmt.Sprintf("%d", g.Lost),
		})
	}
	fmt.Fprintln(w, "Figure 7 — coarse grid hierarchy of the model problem (MIS ratio bounds on hex meshes: 1/8 .. 1/27)")
	fmt.Fprint(w, perf.Table([]string{"level", "vertices", "elements", "ratio", "surface frac", "lost"}, rows))
	return nil
}

// WriteSeriesCSV emits the scaled-study series as CSV (one row per size)
// for external plotting of Figures 10-12 and Table 2.
func WriteSeriesCSV(w io.Writer, runs []*LinearRun) error {
	if len(runs) == 0 {
		return fmt.Errorf("experiments: no runs")
	}
	base := runs[0]
	fmt.Fprintln(w, "dof,free_dof,ranks,levels,pcg_iters,model_mflops,load_balance,"+
		"eFs,ec,eIs,total_e,"+
		"wall_partition_ms,wall_mesh_setup_ms,wall_fine_grid_ms,wall_matrix_setup_ms,wall_solve_ms,model_solve_s")
	for _, r := range runs {
		e := r.efficiencies(base)
		ms := func(name string) float64 {
			return float64(r.Wall[name].Microseconds()) / 1000
		}
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.3f\n",
			r.Dof, r.Free, r.Spec.Ranks, r.Levels, r.Iters, r.ModelMflops, r.LoadBalance(),
			e.EFs, e.Ec, e.EIs, e.Total,
			ms("partition"), ms("mesh setup"), ms("fine grid"), ms("matrix setup"), ms("solve"),
			r.ModelSolveMax)
	}
	return nil
}
