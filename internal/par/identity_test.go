package par_test

import (
	"math"
	"slices"
	"testing"

	"prometheus/internal/fem"
	"prometheus/internal/graph"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/par"
	"prometheus/internal/perf"
	"prometheus/internal/topo"
)

// exampleCounts is what examples/parallel measures on its 10³ hex mesh.
type exampleCounts struct {
	mis, faces              int
	flops, bytes, msgs      []int64 // scalar halo product, per rank
	ghosts                  []int
	scalarMsgs, blockedMsgs int64
	scalarBitwise           bool
	blockedBitwise          bool
}

// TestExampleIdentity pins the three parallel algorithms on the mesh of
// examples/parallel, RCB-partitioned into 8 ranks: the parallel MIS size,
// the parallel face count, the scalar halo product's exact per-rank
// counters and ghost counts, the message totals of both halos, and both
// products bitwise equal to the serial MulVec.
func TestExampleIdentity(t *testing.T) {
	got := runExample(t, 8)
	want := exampleCounts{
		mis:            161,
		faces:          6,
		flops:          []int64{65916, 67428, 67536, 66996, 66510, 68184, 67428, 66240},
		bytes:          []int64{2424, 3048, 3312, 2736, 2736, 3456, 3048, 2424},
		msgs:           []int64{4, 5, 7, 5, 5, 7, 5, 4},
		ghosts:         []int{348, 360, 396, 339, 339, 405, 360, 351},
		scalarMsgs:     42,
		blockedMsgs:    42,
		scalarBitwise:  true,
		blockedBitwise: true,
	}
	if got.mis != want.mis || got.faces != want.faces {
		t.Errorf("MIS %d, faces %d; want %d, %d", got.mis, got.faces, want.mis, want.faces)
	}
	for _, c := range []struct {
		name      string
		got, want []int64
	}{{"flops", got.flops, want.flops}, {"bytes", got.bytes, want.bytes}, {"msgs", got.msgs, want.msgs}} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s %v, want %v", c.name, c.got, c.want)
		}
	}
	if !slices.Equal(got.ghosts, want.ghosts) {
		t.Errorf("ghosts %v, want %v", got.ghosts, want.ghosts)
	}
	if got.scalarMsgs != want.scalarMsgs || got.blockedMsgs != want.blockedMsgs {
		t.Errorf("messages scalar %d blocked %d, want %d %d", got.scalarMsgs, got.blockedMsgs, want.scalarMsgs, want.blockedMsgs)
	}
	if !got.scalarBitwise || !got.blockedBitwise {
		t.Errorf("bitwise equal to serial: scalar %v blocked %v", got.scalarBitwise, got.blockedBitwise)
	}
}

// runExample runs examples/parallel's three algorithms on ranks ranks.
func runExample(t *testing.T, ranks int) exampleCounts {
	m := mesh.StructuredHex(10, 10, 10, 1, 1, 1, nil)
	g := m.NodeGraph()
	owner := graph.RCB(m.Coords, ranks)
	var out exampleCounts

	cls := topo.Reclassify(m, topo.DefaultTOL)
	order := graph.RankedOrder(cls.Rank, graph.NaturalOrder(g.N))
	out.mis = len(par.ParallelMIS(par.NewComm(ranks), cls.ModifiedGraph(g), owner, order, cls.Rank, cls.Immortal()))

	facets := m.BoundaryFacets()
	fo := par.FacetOwnerFromVerts(facets, owner)
	_, out.faces = par.ParallelIdentifyFaces(par.NewComm(ranks), facets, mesh.FacetAdjacency(facets), fo, topo.DefaultTOL)

	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	kb, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	k := kb.ToCSR()
	x := make([]float64, m.NumDOF())
	for i := range x {
		x[i] = float64(i%11) - 5
	}
	want := make([]float64, len(x))
	k.MulVec(x, want)
	bitwise := func(y []float64) bool {
		for i := range want {
			if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	ownedX := func() [][]float64 {
		xs := make([][]float64, ranks)
		for r := range xs {
			xs[r] = make([]float64, len(x))
		}
		for v, r := range owner {
			copy(xs[r][3*v:3*v+3], x[3*v:3*v+3])
		}
		return xs
	}

	dofOwner := make([]int, m.NumDOF())
	for i := range dofOwner {
		dofOwner[i] = owner[i/3]
	}
	halo := par.NewHalo(k, dofOwner, ranks)
	y := make([]float64, len(x))
	c := par.NewComm(ranks)
	halo.MulVec(c, k, ownedX(), y)
	out.flops, out.bytes, out.msgs = c.Flops, c.Bytes, c.Msgs
	for r := 0; r < ranks; r++ {
		out.ghosts = append(out.ghosts, halo.GhostCount(r))
	}
	out.scalarMsgs, out.scalarBitwise = perf.Sum(c.Msgs), bitwise(y)

	bhalo := par.NewBlockHalo(kb, owner, ranks)
	yb := make([]float64, len(x))
	bc := par.NewComm(ranks)
	bhalo.MulVecBSR(bc, kb, ownedX(), yb)
	out.blockedMsgs, out.blockedBitwise = perf.Sum(bc.Msgs), bitwise(yb)
	return out
}
