package par

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"prometheus/internal/check"
	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/mesh"
	"prometheus/internal/obs"
	"prometheus/internal/perf"
	"prometheus/internal/sparse"
	"prometheus/internal/topo"
)

// TestMailRounds checks that a message posted in one round is taken in
// the next, whichever rank posted it.
func TestMailRounds(t *testing.T) {
	c := NewComm(3)
	m := NewMail[string](c)
	c.Round(func(me int) { m.Post(me, (me+2)%3, fmt.Sprint("from ", me), 16) })
	c.Round(func(me int) {
		if got, want := m.Take(me, (me+1)%3), fmt.Sprint("from ", (me+1)%3); got != want {
			t.Errorf("rank %d took %q, want %q", me, got, want)
		}
	})
}

// TestSelfSend checks that a message a rank posts to itself is taken in
// the next round like any other and counts no traffic.
func TestSelfSend(t *testing.T) {
	c := NewComm(1)
	m := NewMail[int](c)
	c.Round(func(me int) { m.Post(me, me, 42, 8) })
	c.Round(func(me int) {
		if got := m.Take(me, me); got != 42 {
			t.Errorf("self take = %v", got)
		}
	})
	if c.Msgs[0] != 0 || c.Bytes[0] != 0 {
		t.Errorf("self message counted: msgs %v bytes %v", c.Msgs, c.Bytes)
	}
}

// TestRunCounted checks the per-rank counters after rounds: flops land on
// the rank that did them, and a message to another rank counts one
// message and its bytes on the sender only.
func TestRunCounted(t *testing.T) {
	c := NewComm(3)
	m := NewMail[string](c)
	c.Round(func(me int) {
		c.AddFlops(me, int64(100*(me+1)))
		if me == 0 {
			m.Post(0, 1, "x", 16)
		}
	})
	c.Round(func(me int) {
		if me == 1 {
			m.Take(1, 0)
		}
	})
	if !slices.Equal(c.Flops, []int64{100, 200, 300}) || !slices.Equal(c.Msgs, []int64{1, 0, 0}) || !slices.Equal(c.Bytes, []int64{16, 0, 0}) {
		t.Errorf("flops %v msgs %v bytes %v", c.Flops, c.Msgs, c.Bytes)
	}
}

// TestSeededFaults plants one protocol fault per row and requires the
// failure to name it: which ranks, and the payload type.
func TestSeededFaults(t *testing.T) {
	post := func(c *Comm, m *Mail[int]) {
		c.Round(func(me int) { m.Post(me, (me+1)%3, me, 8) })
	}
	take := func(c *Comm, m *Mail[int]) {
		c.Round(func(me int) { m.Take(me, (me+2)%3) })
	}
	for _, row := range []struct {
		name  string
		debug bool // needs the promdebug drain check
		run   []func(c *Comm, m *Mail[int])
		want  string // in the panic; "": must run clean
	}{
		// A communicator is reused across products: a protocol that ended
		// clean must start the next one clean.
		{name: "clean-second-run", run: []func(*Comm, *Mail[int]){post, take, post, take}},
		// Rank 1 runs after rank 0 in a round, yet cannot read what rank 0
		// posted in it.
		{name: "take-in-same-round", run: []func(*Comm, *Mail[int]){func(c *Comm, m *Mail[int]) {
			c.Round(func(me int) {
				if m.Post(me, (me+1)%3, me, 8); me > 0 {
					m.Take(me, me-1)
				}
			})
		}}, want: "rank 1 takes a int from rank 0, none was posted the round before"},
		{name: "never-taken", debug: true, run: []func(*Comm, *Mail[int]){post, post},
			want: "par: rank 0 posted a int to rank 1, never taken"},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.debug && !check.Enabled {
				t.Skip("the drain check runs under -tags promdebug")
			}
			got := func() (text string) {
				defer func() { text = fmt.Sprint(recover()) }()
				c := NewComm(3)
				m := NewMail[int](c)
				for _, run := range row.run {
					run(c, m)
				}
				return
			}()
			if row.want == "" && got != "<nil>" || !strings.Contains(got, row.want) {
				t.Fatalf("panic %q, want %q", got, row.want)
			}
		})
	}
}

// gridGraph3D builds an n³ 6-connected lattice.
func gridGraph3D(n int) *graph.Graph {
	var edges [][2]int
	for v := 0; v < n*n*n; v++ {
		for _, stride := range []int{n * n, n, 1} {
			if v/stride%n+1 < n {
				edges = append(edges, [2]int{v, v + stride})
			}
		}
	}
	return graph.NewGraph(n*n*n, edges)
}

func TestParallelMISInvariants(t *testing.T) {
	g := gridGraph3D(6)
	order := graph.RandomOrder(g.N, 11)
	rank := make([]int, g.N)
	for v := range rank {
		rank[v] = v % 3
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		owner := make([]int, g.N)
		for v := range owner {
			owner[v] = v % p
		}
		mis := ParallelMIS(NewComm(p), g, owner, order, rank, nil)
		if !graph.IsMaximal(g, mis) {
			t.Fatalf("p=%d: parallel MIS not maximal independent", p)
		}
	}
}

func TestParallelMISDeterministic(t *testing.T) {
	g := gridGraph3D(5)
	order := graph.RandomOrder(g.N, 3)
	owner := make([]int, g.N)
	for v := range owner {
		owner[v] = v % 4
	}
	a := ParallelMIS(NewComm(4), g, owner, order, nil, nil)
	b := ParallelMIS(NewComm(4), g, owner, order, nil, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallel MIS not deterministic for fixed inputs")
	}
}

func TestParallelMISSingleRankMatchesInvariants(t *testing.T) {
	// With one rank the algorithm degenerates to the serial greedy sweep.
	g := gridGraph3D(4)
	order := graph.NaturalOrder(g.N)
	serial := graph.MIS(g, order, nil, nil)
	par1 := ParallelMIS(NewComm(1), g, make([]int, g.N), order, nil, nil)
	if !reflect.DeepEqual(serial, par1) {
		t.Fatalf("1-rank parallel MIS (%d) != serial MIS (%d)", len(par1), len(serial))
	}
}

func TestParallelMISImmortals(t *testing.T) {
	g := gridGraph3D(4)
	imm := make([]bool, g.N)
	imm[0] = true
	imm[g.N-1] = true
	owner := make([]int, g.N)
	for v := range owner {
		owner[v] = v % 3
	}
	mis := ParallelMIS(NewComm(3), g, owner, graph.NaturalOrder(g.N), nil, imm)
	if !slices.Contains(mis, 0) || !slices.Contains(mis, g.N-1) {
		t.Fatal("immortal vertices must be selected")
	}
	if !graph.IsMaximal(g, mis) {
		t.Fatal("not maximal")
	}
}

// BenchmarkParallelMIS runs the section 4.2 parallel MIS on 8 simulated
// ranks.
func BenchmarkParallelMIS(b *testing.B) {
	m := mesh.StructuredHex(10, 10, 10, 1, 1, 1, nil)
	g := m.NodeGraph()
	owner := graph.RCB(m.Coords, 8)
	order := graph.NaturalOrder(g.N)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size = len(ParallelMIS(NewComm(8), g, owner, order, nil, nil))
	}
	b.ReportMetric(float64(size), "MIS-size")
}

// cube returns the boundary facets of an n×n×n unit cube mesh and their
// adjacency.
func cube(n int) (*mesh.Mesh, []mesh.Facet, [][]int) {
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	facets := m.BoundaryFacets()
	return m, facets, mesh.FacetAdjacency(facets)
}

func TestParallelIdentifyFacesCube(t *testing.T) {
	m, facets, adj := cube(4)
	for _, p := range []int{1, 2, 3, 4} {
		vertOwner := make([]int, m.NumVerts())
		for v := range vertOwner {
			vertOwner[v] = v % p
		}
		fo := FacetOwnerFromVerts(facets, vertOwner)
		faceID, n := ParallelIdentifyFaces(NewComm(p), facets, adj, fo, topo.DefaultTOL)
		if n != 6 {
			t.Fatalf("p=%d: faces = %d, want 6", p, n)
		}
		// Same-normal facets must end in the same face.
		byNormal := make(map[geom.Vec3]int)
		for i, f := range facets {
			if prev, ok := byNormal[f.Normal]; ok && faceID[i] != prev {
				t.Fatalf("p=%d: face split on normal %v", p, f.Normal)
			}
			byNormal[f.Normal] = faceID[i]
		}
	}
}

func TestParallelFacesClassificationAgreesSerially(t *testing.T) {
	// The classification derived from parallel faces must match the serial
	// one on a cube (face identity is unique there).
	m, facets, adj := cube(3)
	serialID, _ := topo.IdentifyFaces(facets, adj, topo.DefaultTOL)
	want := topo.Classify(m.NumVerts(), facets, serialID)
	vertOwner := graph.GreedyPartition(m.NodeGraph(), 3)
	fo := FacetOwnerFromVerts(facets, vertOwner)
	parID, _ := ParallelIdentifyFaces(NewComm(3), facets, adj, fo, topo.DefaultTOL)
	got := topo.Classify(m.NumVerts(), facets, parID)
	for v := range want.Rank {
		if want.Rank[v] != got.Rank[v] {
			t.Fatalf("rank mismatch at vertex %d: serial %d parallel %d", v, want.Rank[v], got.Rank[v])
		}
	}
}

// scalarTestMatrix builds an n-row tridiagonal test operator with a
// long-range band at distance far.
func scalarTestMatrix(n, far int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i+1 < n {
			b.Add(i, i+1, -1)
			b.Add(i+1, i, -1)
		}
		b.Add(i, (i+far)%n, 0.5)
	}
	return b.Build()
}

// blockTestMatrix builds an nb-node block tridiagonal test operator with a
// long-range band, 3x3 blocks.
func blockTestMatrix(nb int, rng *rand.Rand) *sparse.BSR {
	bb := sparse.NewBlockBuilder(nb, nb, 3)
	blk := make([]float64, 9)
	fill := func(diag float64) []float64 {
		for i := range blk {
			blk[i] = rng.Float64() - 0.5
		}
		blk[0] += diag
		blk[4] += diag
		blk[8] += diag
		return blk
	}
	for i := 0; i < nb; i++ {
		bb.AddBlock(i, i, fill(6))
		if i+1 < nb {
			bb.AddBlock(i, i+1, fill(0))
			bb.AddBlock(i+1, i, fill(0))
		}
		bb.AddBlock(i, (i+11)%nb, fill(0))
	}
	return bb.Build()
}

// ownedCopies returns each rank's copy of x, valid only on the entries
// it owns (bs consecutive entries per owned index).
func ownedCopies(x []float64, owner []int, p, bs int) [][]float64 {
	xs := make([][]float64, p)
	for r := range xs {
		xs[r] = make([]float64, len(x))
	}
	for i, o := range owner {
		copy(xs[o][bs*i:bs*i+bs], x[bs*i:bs*i+bs])
	}
	return xs
}

func TestHaloMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 60
	a := scalarTestMatrix(n, 17)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := make([]float64, n)
	a.MulVec(x, want)

	for _, p := range []int{1, 2, 3, 5} {
		owner := contiguous(n, p)
		h := NewHalo(a, owner, p)
		got := make([]float64, n)
		comm := NewComm(p)
		h.MulVec(comm, a, ownedCopies(x, owner, p, 1), got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("p=%d: y[%d] = %v want %v", p, i, got[i], want[i])
			}
		}
		// Total flops must equal 2·nnz regardless of p.
		if total := perf.Sum(comm.Flops); total != a.MulVecFlops() {
			t.Fatalf("p=%d: flops %d want %d", p, total, a.MulVecFlops())
		}
		if p > 1 && comm.Bytes[0] == 0 {
			t.Fatalf("p=%d: expected halo traffic", p)
		}
	}
}

// TestBlockHaloMulVec checks the node-granular halo: the distributed
// blocked product must be bitwise identical to the serial BSR product on
// every rank count, with the same total flop count and the same ghost
// volume as a scalar halo over the expanded matrix.
func TestBlockHaloMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nb := 40
	a := blockTestMatrix(nb, rng)
	n := a.Rows()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := make([]float64, n)
	a.MulVec(x, want)

	for _, p := range []int{1, 2, 3, 5} {
		nodeOwner := contiguous(nb, p)
		h := NewBlockHalo(a, nodeOwner, p)
		got := make([]float64, n)
		comm := NewComm(p)
		h.MulVecBSR(comm, a, ownedCopies(x, nodeOwner, p, 3), got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("p=%d: y[%d] = %v want %v (not bitwise)", p, i, got[i], want[i])
			}
		}
		if total := perf.Sum(comm.Flops); total != a.MulVecFlops() {
			t.Fatalf("p=%d: flops %d want %d", p, total, a.MulVecFlops())
		}
		hs := NewHalo(a.ToCSR(), expandOwner(nodeOwner, 3), p)
		for rk := 0; rk < p; rk++ {
			if h.GhostCount(rk) != hs.GhostCount(rk) {
				t.Fatalf("p=%d rank %d: blocked ghosts %d vs scalar %d", p, rk, h.GhostCount(rk), hs.GhostCount(rk))
			}
		}
	}
}

func expandOwner(nodeOwner []int, b int) []int {
	out := make([]int, b*len(nodeOwner))
	for i, o := range nodeOwner {
		for d := 0; d < b; d++ {
			out[b*i+d] = o
		}
	}
	return out
}

// contiguous assigns n rows to p ranks in contiguous ranges.
func contiguous(n, p int) []int {
	owner := make([]int, n)
	for i := range owner {
		owner[i] = i * p / n
	}
	return owner
}

// TestSteadyStateAllocs requires a warm halo product, scalar and blocked,
// with obs off and on, to allocate nothing: the edge buffers and the
// mailbox are reused, and obs records into preallocated atomics.
func TestSteadyStateAllocs(t *testing.T) {
	const p = 4
	a, owner := scalarTestMatrix(96, 29), contiguous(96, p)
	ab, nodeOwner := blockTestMatrix(32, rand.New(rand.NewSource(1))), contiguous(32, p)
	products := []struct {
		name    string
		product func(c *Comm) func()
	}{
		{"scalar", func(c *Comm) func() {
			h, xs, y := NewHalo(a, owner, p), ownedCopies(make([]float64, a.NRows), owner, p, 1), make([]float64, a.NRows)
			return func() { h.MulVec(c, a, xs, y) }
		}},
		{"blocked", func(c *Comm) func() {
			h, xs, y := NewBlockHalo(ab, nodeOwner, p), ownedCopies(make([]float64, ab.Rows()), nodeOwner, p, 3), make([]float64, ab.Rows())
			return func() { h.MulVecBSR(c, ab, xs, y) }
		}},
	}
	for _, pr := range products {
		for _, obsOn := range []bool{false, true} {
			name := pr.name + "-obs-off"
			if obsOn {
				name = pr.name + "-obs-on"
			}
			t.Run(name, func(t *testing.T) {
				if obsOn {
					obs.EnableWith(obs.Config{Ranks: p, RingCap: 1 << 12})
					defer obs.Disable()
				}
				c := NewComm(p)
				run := pr.product(c)
				run()
				if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
					t.Errorf("warm product allocates %v objects", allocs)
				}
				if !obsOn {
					return
				}
				// The instrumentation must actually have measured the traffic.
				flops, msgs, bytes, ok := obs.Snapshot().PerRank("par.rank")
				if !ok || perf.Sum(flops) == 0 || perf.Sum(msgs) == 0 || perf.Sum(bytes) == 0 {
					t.Fatalf("par.rank counters %v %v %v (present %v), want all non-zero", flops, msgs, bytes, ok)
				}
			})
		}
	}
}
