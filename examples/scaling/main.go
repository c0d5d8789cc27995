// Scaling: the section 7.1 scalability study in miniature — a series of
// model problems with constant dof per simulated rank, reporting iteration
// counts, the phase breakdown, and the machine-modeled cluster efficiency
// decomposition of section 6 (the content of Table 2 and Figures 10-12).
//
//	go run ./examples/scaling [-maxk n]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"prometheus/internal/experiments"
)

func main() {
	maxK := flag.Int("maxk", 2, "largest series index (3 takes ~20s)")
	flag.Parse()

	runs, err := experiments.RunSeries(*maxK)
	if err != nil {
		log.Fatal(err)
	}
	w := os.Stdout
	if err := experiments.Table2(w, runs); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)
	if err := experiments.Fig10(w, runs); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)
	if err := experiments.Fig11(w, runs); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)
	if err := experiments.Fig12(w, runs); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)
	if err := experiments.Headline(w, runs); err != nil {
		log.Fatal(err)
	}
}
