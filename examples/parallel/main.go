// Parallel: the paper's distributed algorithms run as rounds of local
// work on simulated ranks, separated by ghost exchanges — the rank-based
// parallel maximal independent set of section 4.2, the seeded parallel
// face identification of section 4.5, and a row-partitioned
// matrix-vector product with halo exchange (the PETSc kernel pattern),
// with the per-rank communication volumes the efficiency model consumes.
//
//	go run ./examples/parallel [-ranks n]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"prometheus/internal/fem"
	"prometheus/internal/graph"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/par"
	"prometheus/internal/perf"
	"prometheus/internal/sparse"
	"prometheus/internal/topo"
)

func main() {
	ranks := flag.Int("ranks", 8, "simulated processor count")
	flag.Parse()

	m := mesh.StructuredHex(10, 10, 10, 1, 1, 1, nil)
	g := m.NodeGraph()
	owner := graph.RCB(m.Coords, *ranks) // the SMP-style geometric partition
	fmt.Printf("mesh: %d vertices, %d elements; %d simulated ranks (RCB partition)\n",
		m.NumVerts(), m.NumElems(), *ranks)

	// --- Section 4.2: parallel MIS with topological ranks.
	cls := topo.Reclassify(m, topo.DefaultTOL)
	order := graph.RankedOrder(cls.Rank, graph.NaturalOrder(g.N))
	mg := cls.ModifiedGraph(g)
	serial := graph.MIS(mg, order, cls.Rank, cls.Immortal())
	parallel := par.ParallelMIS(par.NewComm(*ranks), mg, owner, order, cls.Rank, cls.Immortal())
	fmt.Printf("MIS: serial %d vertices, parallel %d vertices (both maximal: %v, %v)\n",
		len(serial), len(parallel),
		graph.IsMaximal(mg, serial), graph.IsMaximal(mg, parallel))

	// --- Section 4.5: parallel face identification.
	facets := m.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	_, nSerial := topo.IdentifyFaces(facets, adj, topo.DefaultTOL)
	fo := par.FacetOwnerFromVerts(facets, owner)
	_, nParallel := par.ParallelIdentifyFaces(par.NewComm(*ranks), facets, adj, fo, topo.DefaultTOL)
	fmt.Printf("face identification: serial %d faces, parallel %d faces\n", nSerial, nParallel)

	// --- Distributed SpMV with halo exchange and measured traffic.
	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		log.Fatal(err)
	}
	dofOwner := make([]int, m.NumDOF())
	for v := 0; v < m.NumVerts(); v++ {
		for c := 0; c < 3; c++ {
			dofOwner[3*v+c] = owner[v]
		}
	}
	// The scalar halo works on the tangent's scalar expansion.
	kc := sparse.AsCSR(k)
	halo := par.NewHalo(kc, dofOwner, *ranks)
	x := make([]float64, m.NumDOF())
	for i := range x {
		x[i] = float64(i%11) - 5
	}
	// Each rank holds only its own entries of x; the halo exchange fills
	// the ghosts it needs.
	ownedX := func() [][]float64 {
		xs := make([][]float64, *ranks)
		for r := range xs {
			xs[r] = make([]float64, len(x))
		}
		for i, r := range dofOwner {
			xs[r][i] = x[i]
		}
		return xs
	}
	y := make([]float64, m.NumDOF())
	comm := par.NewComm(*ranks)
	halo.MulVec(comm, kc, ownedX(), y)
	// Verify against the serial scalar product.
	want := make([]float64, m.NumDOF())
	kc.MulVec(x, want)
	diff := 0.0
	for i := range want {
		d := y[i] - want[i]
		diff += d * d
	}
	fmt.Printf("distributed SpMV: error vs serial = %.2g\n", diff)

	fmt.Println("\nrank  flops     bytes-sent  msgs  ghosts")
	for r := 0; r < *ranks; r++ {
		fmt.Printf("%4d  %8d  %10d  %4d  %6d\n",
			r, comm.Flops[r], comm.Bytes[r], comm.Msgs[r], halo.GhostCount(r))
	}
	fmt.Printf("load balance (flops): %.2f\n", perf.LoadBalance(comm.Flops))

	// --- The same product through the node-granular blocked halo: the
	// tangent as assembled, in 3x3-node BSR (the PETSc BAIJ analogue),
	// ghosts exchanged one node index + three values at a time. The result
	// is bitwise identical; the index traffic drops by 3x.
	bhalo := par.NewBlockHalo(k, owner, *ranks)
	yb := make([]float64, m.NumDOF())
	bcomm := par.NewComm(*ranks)
	bhalo.MulVecBSR(bcomm, k, ownedX(), yb)
	bitwise := true
	for i := range want {
		if math.Float64bits(yb[i]) != math.Float64bits(want[i]) {
			bitwise = false
			break
		}
	}
	fmt.Printf("\nblocked SpMV (BSR + node-granular halo): bitwise identical to serial = %v\n", bitwise)
	fmt.Printf("halo messages: scalar %d, blocked %d; ghost volume unchanged, index traffic /3\n",
		perf.Sum(comm.Msgs), perf.Sum(bcomm.Msgs))
}
