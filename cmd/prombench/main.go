// Command prombench regenerates the tables and figures of the paper's
// evaluation (section 7) on laptop-scale reproductions of the model
// problem. Run with -exp all (default) for the full suite or name a single
// experiment; -full enlarges the scaled series and uses the paper's ten
// load steps in the nonlinear study. Timing the product is not this
// command's job: that is bench/ (see BENCHMARK.json).
//
// Usage:
//
//	prombench [-exp name] [-full] [-csv path]
//
// Experiments: table1, table2, fig7, fig9, fig10, fig11, fig12, fig13,
// thinbody, ordering, parmis, amg, phases, headline, ablations, all.
// -csv additionally writes the scaled series as CSV for plotting.
// -obs enables the observability subsystem for the whole run and prints
// the -log_view-style event table after the experiments finish.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prometheus/internal/experiments"
	"prometheus/internal/multigrid"
	"prometheus/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see package doc)")
	full := flag.Bool("full", false, "run the larger series and full load schedule")
	csvPath := flag.String("csv", "", "also write the scaled series as CSV to this path")
	obsOn := flag.Bool("obs", false, "record obs events for the run and print the event table at the end")
	flag.Parse()

	if *obsOn {
		obs.Enable()
	}

	maxK := 2
	steps := 4
	nlK := 1
	if *full {
		maxK = 3
		steps = 10
		nlK = 2
	}

	w := os.Stdout
	var runs []*experiments.LinearRun
	needSeries := func() error {
		if runs != nil {
			return nil
		}
		var err error
		runs, err = experiments.RunSeries(maxK, multigrid.Options{})
		return err
	}

	// onSeries adapts a report over the scaled series, which is run once
	// and shared.
	onSeries := func(report func(io.Writer, []*experiments.LinearRun) error) func(io.Writer) error {
		return func(w io.Writer) error {
			if err := needSeries(); err != nil {
				return err
			}
			return report(w, runs)
		}
	}
	reports := map[string]func(io.Writer) error{
		"table1":   experiments.Table1,
		"table2":   onSeries(experiments.Table2),
		"fig7":     experiments.Fig7,
		"fig9":     experiments.Fig9,
		"fig10":    onSeries(experiments.Fig10),
		"fig11":    onSeries(experiments.Fig11),
		"fig12":    onSeries(experiments.Fig12),
		"fig13":    func(w io.Writer) error { return experiments.Fig13(w, nlK, steps) },
		"thinbody": experiments.ThinBody,
		"ordering": experiments.Ordering,
		"parmis":   experiments.ParallelMISStudy,
		"amg":      experiments.AMGCompare,
		"phases":   experiments.Amortization,
		"headline": onSeries(experiments.Headline),
		"ablations": func(w io.Writer) error {
			for i, ablation := range []func(io.Writer) error{
				experiments.AblationTOL, experiments.AblationReclassify, experiments.AblationBlocks,
				experiments.AblationCycle,
			} {
				if i > 0 {
					fmt.Fprintln(w)
				}
				if err := ablation(w); err != nil {
					return err
				}
			}
			return nil
		},
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig9", "fig7", "table2", "fig10", "fig11",
			"fig12", "headline", "fig13", "thinbody", "ordering", "parmis", "amg", "phases", "ablations"}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(w)
		}
		report, ok := reports[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "prombench: unknown experiment %q\n", name)
			os.Exit(1)
		}
		if err := report(w); err != nil {
			fmt.Fprintf(os.Stderr, "prombench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *csvPath != "" {
		if err := needSeries(); err != nil {
			fmt.Fprintf(os.Stderr, "prombench: csv: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prombench: csv: %v\n", err)
			os.Exit(1)
		}
		err = experiments.WriteSeriesCSV(f, runs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "prombench: csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote %s\n", *csvPath)
	}
	if *obsOn {
		fmt.Fprintln(w)
		if err := obs.Snapshot().WriteLogView(w); err != nil {
			fmt.Fprintf(os.Stderr, "prombench: obs: %v\n", err)
			os.Exit(1)
		}
	}
}
