// Spheres: the paper's section 7 model problem in miniature — an octant of
// a layered "steel-belted radial inside a rubber cube", crushed from the
// top over ten displacement steps with full Newton and the multigrid
// preconditioned linear solver. Reports the Figure 13 quantities: plastic
// fraction per step and PCG iterations per Newton solve.
//
//	go run ./examples/spheres [-layers n] [-k n] [-steps n]
package main

import (
	"flag"
	"fmt"
	"log"

	prometheus "prometheus"
	"prometheus/internal/material"
	"prometheus/internal/problems"
)

func main() {
	layers := flag.Int("layers", 5, "alternating hard/soft layers (paper: 17)")
	k := flag.Int("k", 1, "elements through each layer")
	steps := flag.Int("steps", 10, "displacement load steps")
	flag.Parse()

	cfg := problems.SpheresConfig{
		Layers: *layers, ElemsPerLayer: *k,
		CoreElems: 2 * *k, OuterElems: 2 * *k,
	}
	s := problems.NewSpheresConfig(cfg)
	// Keep the shell-bending yield regime of the paper's 17-layer geometry
	// when running with fewer, thicker layers.
	s.Models[material.MatHard] = material.J2Plasticity{
		E: 1, Nu: 0.3, SigmaY: problems.ScaledYieldStress(cfg), H: 0.002,
	}
	fmt.Printf("spheres octant: %d layers, %d elements, %d dof, %.0f%% hard material\n",
		cfg.Layers, s.Mesh.NumElems(), s.Mesh.NumDOF(), 100*s.HardFraction())

	solver, err := prometheus.NewSolver(s.Mesh, s.Cons, prometheus.Options{})
	if err != nil {
		log.Fatal(err)
	}
	counts, _ := solver.VertexReduction()
	fmt.Printf("hierarchy: %d levels, vertices per grid %v\n", solver.NumLevels(), counts)

	// B-bar elements for the nearly incompressible rubber (nu = 0.49).
	p := prometheus.NewProblem(s.Mesh, s.Models, true)
	_, stats, err := solver.SolveNonlinear(p,
		prometheus.NewtonConfig{Steps: *steps}, s.HardMat)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nstep  newton  plastic  PCG per solve")
	for i, ss := range stats.Steps {
		its := ""
		for j, n := range ss.PCGIters {
			if j > 0 {
				its += "+"
			}
			its += fmt.Sprintf("%d", n)
		}
		fmt.Printf("%4d  %6d  %6.1f%%  %s\n",
			i+1, ss.NewtonIters, 100*ss.PlasticFrac, its)
	}
	fmt.Printf("\nfirst linear solve: %d PCG iterations (paper: 29 at the 80k-dof base size)\n",
		stats.FirstSolveIters)
	fmt.Printf("totals: %d Newton iterations, %d PCG iterations\n",
		stats.TotalNewton, stats.TotalPCG)
}
