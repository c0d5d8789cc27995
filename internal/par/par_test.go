package par

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/sparse"
)

func TestBarrierAndReduce(t *testing.T) {
	c := NewComm(8)
	c.Run(func(r *Rank) {
		for iter := 0; iter < 50; iter++ {
			s := r.AllReduceSum(float64(r.ID()))
			if s != 28 {
				t.Errorf("sum = %v", s)
			}
			m := r.AllReduceMax(float64(r.ID()))
			if m != 7 {
				t.Errorf("max = %v", m)
			}
			n := r.AllReduceIntSum(1)
			if n != 8 {
				t.Errorf("count = %v", n)
			}
			r.Barrier()
		}
	})
}

func TestSendRecvTags(t *testing.T) {
	c := NewComm(2)
	c.Run(func(r *Rank) {
		if r.ID() == 0 {
			// Send tag 5 then tag 3; receiver asks for 3 first.
			r.Send(1, 5, "five", 4)
			r.Send(1, 3, "three", 5)
		} else {
			if got := r.Recv(0, 3); got != "three" {
				t.Errorf("tag 3 = %v", got)
			}
			if got := r.Recv(0, 5); got != "five" {
				t.Errorf("tag 5 = %v", got)
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	c := NewComm(1)
	c.Run(func(r *Rank) {
		r.Send(0, 7, 42, 8)
		if got := r.Recv(0, 7); got != 42 {
			t.Errorf("self recv = %v", got)
		}
	})
}

func TestAllGather(t *testing.T) {
	c := NewComm(5)
	c.Run(func(r *Rank) {
		vals := AllGatherAs(r, r.ID()*10)
		for i, v := range vals {
			if v != i*10 {
				t.Errorf("gather[%d] = %v", i, v)
			}
		}
	})
}

func TestRunCounted(t *testing.T) {
	c := NewComm(3)
	counters := c.RunCounted(func(r *Rank) {
		r.CountFlops(int64(100 * (r.ID() + 1)))
		if r.ID() == 0 {
			r.Send(1, 1, "x", 16)
		}
		if r.ID() == 1 {
			r.Recv(0, 1)
		}
	})
	if counters.Flops[2] != 300 {
		t.Errorf("flops = %v", counters.Flops)
	}
	if counters.BytesSent[0] != 16 || counters.MsgsSent[0] != 1 {
		t.Errorf("traffic = %v %v", counters.BytesSent, counters.MsgsSent)
	}
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewComm(2).Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
	})
}

// gridGraph3D builds an n³ 6-connected lattice.
func gridGraph3D(n int) *graph.Graph {
	id := func(i, j, k int) int { return (i*n+j)*n + k }
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if i+1 < n {
					edges = append(edges, [2]int{id(i, j, k), id(i+1, j, k)})
				}
				if j+1 < n {
					edges = append(edges, [2]int{id(i, j, k), id(i, j+1, k)})
				}
				if k+1 < n {
					edges = append(edges, [2]int{id(i, j, k), id(i, j, k+1)})
				}
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
	if !reflect.DeepEqual(serial, sortedCopy(par1)) {
		t.Fatalf("1-rank parallel MIS (%d) != serial MIS (%d)", len(par1), len(serial))
	}
}

func sortedCopy(s []int) []int {
	c := append([]int(nil), s...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j-1] > c[j]; j-- {
			c[j-1], c[j] = c[j], c[j-1]
		}
	}
	return c
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
	has := func(v int) bool {
		for _, m := range mis {
			if m == v {
				return true
			}
		}
		return false
	}
	if !has(0) || !has(g.N-1) {
		t.Fatal("immortal vertices must be selected")
	}
	if !graph.IsMaximal(g, mis) {
		t.Fatal("not maximal")
	}
}

func TestHaloMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 60
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i+1 < n {
			b.Add(i, i+1, -1)
			b.Add(i+1, i, -1)
		}
		b.Add(i, (i+17)%n, 0.5)
	}
	a := b.Build()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := make([]float64, n)
	a.MulVec(x, want)

	for _, p := range []int{1, 2, 3, 5} {
		owner := make([]int, n)
		for i := range owner {
			owner[i] = i * p / n
		}
		h := NewHalo(a, owner, p)
		got := make([]float64, n)
		// Each rank gets its own copy of x valid only on owned entries to
		// prove the exchange works, but shares got.
		comm := NewComm(p)
		counters := comm.RunCounted(func(r *Rank) {
			xl := make([]float64, n)
			for i := range xl {
				if owner[i] == r.ID() {
					xl[i] = x[i]
				}
			}
			h.MulVec(r, a, xl, got)
		})
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("p=%d: y[%d] = %v want %v", p, i, got[i], want[i])
			}
		}
		// Total flops must equal 2·nnz regardless of p.
		var total int64
		for _, f := range counters.Flops {
			total += f
		}
		if total != a.MulVecFlops() {
			t.Fatalf("p=%d: flops %d want %d", p, total, a.MulVecFlops())
		}
		if p > 1 && counters.BytesSent[0] == 0 {
			t.Fatalf("p=%d: expected halo traffic", p)
		}
	}
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

// TestBlockHaloMulVec checks the node-granular halo: the distributed
// blocked product must be bitwise identical to the serial BSR product on
// every rank count, with the same total flop count, and the blocked
// exchange must move fewer messages than a scalar halo over the expanded
// matrix (one index + 3 values per ghost node).
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
		nodeOwner := make([]int, nb)
		for i := range nodeOwner {
			nodeOwner[i] = i * p / nb
		}
		h := NewBlockHalo(a, nodeOwner, p)
		got := make([]float64, n)
		comm := NewComm(p)
		counters := comm.RunCounted(func(r *Rank) {
			xl := make([]float64, n)
			for ib := 0; ib < nb; ib++ {
				if nodeOwner[ib] == r.ID() {
					copy(xl[3*ib:3*ib+3], x[3*ib:3*ib+3])
				}
			}
			h.MulVecBSR(r, a, xl, got)
		})
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("p=%d: y[%d] = %v want %v (not bitwise)", p, i, got[i], want[i])
			}
		}
		var total int64
		for _, f := range counters.Flops {
			total += f
		}
		if total != a.MulVecFlops() {
			t.Fatalf("p=%d: flops %d want %d", p, total, a.MulVecFlops())
		}
		if p > 1 {
			// Same ghost volume as the scalar halo on the expanded matrix,
			// from one third of the messages' index entries.
			hs := NewHalo(a.ToCSR(), expandOwner(nodeOwner, 3), p)
			for rk := 0; rk < p; rk++ {
				if h.GhostCount(rk) != hs.GhostCount(rk) {
					t.Fatalf("p=%d rank %d: blocked ghosts %d vs scalar %d", p, rk, h.GhostCount(rk), hs.GhostCount(rk))
				}
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

// TestBlockHaloDot checks the blocked distributed inner product covers
// every scalar entry exactly once.
func TestBlockHaloDot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nb := 24
	a := blockTestMatrix(nb, rng)
	nodeOwner := make([]int, nb)
	for i := range nodeOwner {
		nodeOwner[i] = i % 4
	}
	h := NewBlockHalo(a, nodeOwner, 4)
	n := a.Rows()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
		y[i] = 2
	}
	comm := NewComm(4)
	comm.Run(func(r *Rank) {
		if d := h.Dot(r, x, y); d != float64(2*n) {
			t.Errorf("dot = %v want %v", d, float64(2*n))
		}
	})
}

func TestHaloDot(t *testing.T) {
	n := 40
	a := sparse.Identity(n)
	owner := make([]int, n)
	for i := range owner {
		owner[i] = i % 4
	}
	h := NewHalo(a, owner, 4)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
		y[i] = 2
	}
	comm := NewComm(4)
	comm.Run(func(r *Rank) {
		d := h.Dot(r, x, y)
		if d != float64(2*n) {
			t.Errorf("dot = %v", d)
		}
	})
	if h.GhostCount(0) != 0 {
		t.Error("identity matrix should need no ghosts")
	}
}
