// Quickstart: solve a linear elasticity problem on a cube with the
// multigrid solver, using only the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	prometheus "prometheus"
)

func main() {
	// 1. Build a mesh: a 10x10x10-element unit cube (3993 dof).
	m := prometheus.NewStructuredHexMesh(10, 10, 10, 1, 1, 1, nil)

	// 2. Boundary conditions: clamp the bottom face, load the top face.
	cons := prometheus.NewConstraints()
	load := make([]float64, m.NumDOF())
	for v, p := range m.Coords {
		if p.Z == 0 {
			cons.FixVert(v, 0, 0, 0)
		}
		if math.Abs(p.Z-1) < 1e-9 {
			load[3*v+2] = -0.001 // downward surface load
		}
	}

	// 3. Mesh setup: the solver coarsens the mesh automatically with the
	// MIS/Delaunay pipeline of the paper — the user supplies only the fine
	// grid.
	solver, err := prometheus.NewSolver(m, cons, prometheus.Options{RTol: 1e-8})
	if err != nil {
		log.Fatal(err)
	}
	counts, _ := solver.VertexReduction()
	fmt.Printf("grid hierarchy: %d levels, vertices per grid %v\n",
		solver.NumLevels(), counts)

	// 4. Assemble the stiffness matrix (steel-like linear elasticity).
	prob := prometheus.NewProblem(m, []prometheus.Model{
		prometheus.LinearElastic{E: 200e9, Nu: 0.3},
	}, false)
	k, _, err := prob.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		log.Fatal(err)
	}

	// 5. Solve with CG preconditioned by one full multigrid cycle.
	u, res, err := solver.SolveLinear(k, load)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved %d dof in %d MG-PCG iterations (%.2g Mflop)\n",
		m.NumDOF(), res.Iterations, float64(res.SolveFlops)/1e6)

	// Report the centre-top deflection.
	for v, p := range m.Coords {
		if math.Abs(p.X-0.5) < 1e-9 && math.Abs(p.Y-0.5) < 1e-9 && math.Abs(p.Z-1) < 1e-9 {
			fmt.Printf("top-centre deflection: %.3e\n", u[3*v+2])
		}
	}
}
