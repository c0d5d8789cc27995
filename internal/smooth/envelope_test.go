package smooth

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/la"
)

// randomUnitGraph returns a structurally symmetric graph over n units in
// which every unit lists itself, the pattern of a matrix that stores every
// diagonal block: each pair of units is joined with probability density.
func randomUnitGraph(rng *rand.Rand, n int, density float64) *graph.Graph {
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		adj[u] = append(adj[u], u)
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	g := &graph.Graph{N: n, Ptr: make([]int, n+1)}
	for u, nb := range adj {
		slices.Sort(nb)
		g.Adj = append(g.Adj, nb...)
		g.Ptr[u+1] = len(g.Adj)
	}
	return g
}

// randomParts deals the units into nparts ordered parts, each unit to a
// random part or, one time in eight, to none, every part in a random
// order.
func randomParts(rng *rand.Rand, n, nparts int) [][]int {
	parts := make([][]int, nparts)
	for _, u := range rng.Perm(n) {
		if rng.Intn(8) > 0 {
			p := rng.Intn(nparts)
			parts[p] = append(parts[p], u)
		}
	}
	return parts
}

// scalarScan is the envelope pass PlanBlocks replaced, kept as the
// reference: it expands the unit graph to its scalar pattern, dof b·u+c
// of unit u storing every dof of u and of u's neighbours, and starts row p
// of a block at its first stored in-block column, rounded down to a
// multiple of 4. It returns every block's envelope offsets and the
// factorization work of them all.
func scalarScan(g *graph.Graph, b int, parts [][]int) ([][]int, int) {
	pos, in := make([]int, b*g.N), make([]int, b*g.N)
	for d := range in {
		in[d] = -1
	}
	var blocks [][]int
	for bi, units := range parts {
		var dofs []int
		for _, u := range units {
			for c := 0; c < b; c++ {
				dofs = append(dofs, b*u+c)
			}
		}
		for p, d := range dofs {
			pos[d], in[d] = p, bi
		}
		blocks = append(blocks, dofs)
	}
	env, work := make([][]int, len(blocks)), 0
	for bi, dofs := range blocks {
		first := make([]int, len(dofs))
		for p, d := range dofs {
			first[p] = p
			u := d / b
			for _, v := range g.Adj[g.Ptr[u]:g.Ptr[u+1]] {
				for j := b * v; j < b*v+b; j++ {
					if in[j] == bi && pos[j] < first[p] {
						first[p] = pos[j]
					}
				}
			}
			first[p] &^= 3
		}
		env[bi] = la.EnvelopeOffsets(first)
		work += choleskyWork(first)
	}
	return env, work
}

// checkUnitEnvelopes compares PlanBlocks' plan of parts of g's units of b
// dofs with the scalar scan: every block's dofs, envelope and the total
// factorization work.
func checkUnitEnvelopes(g *graph.Graph, b int, parts [][]int) error {
	p := PlanBlocks(g, b, parts)
	env, work := scalarScan(g, b, parts)
	for bi, units := range parts {
		dofs := p.blocks[bi]
		if len(dofs) != b*len(units) {
			return fmt.Errorf("block %d holds %d dofs for %d units of %d", bi, len(dofs), len(units), b)
		}
		for k, d := range dofs {
			if u, c := units[k/b], k%b; d != b*u+c {
				return fmt.Errorf("block %d row %d is dof %d, want dof %d of unit %d", bi, k, d, c, u)
			}
		}
		if !slices.Equal(p.env[bi], env[bi]) {
			return fmt.Errorf("block %d (%d units of %d): envelope %v, the scalar scan %v", bi, len(units), b, p.env[bi], env[bi])
		}
	}
	if p.factorWork != work {
		return fmt.Errorf("factorization work %d, the scalar scan %d", p.factorWork, work)
	}
	return nil
}

// FuzzUnitEnvelopes checks PlanBlocks' envelopes, laid out from the unit
// graph, against the scan of the scalar pattern it stands for, on random
// structurally symmetric block patterns of 1, 2 and 3 dofs a unit with
// every diagonal block stored, dealt into random ordered parts.
func FuzzUnitEnvelopes(f *testing.F) {
	for _, c := range []struct{ n, b, parts uint8 }{{1, 1, 1}, {7, 3, 1}, {20, 2, 3}, {40, 3, 4}, {64, 1, 5}} {
		f.Add(int64(c.n), c.n, c.b, c.parts)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, b, nparts uint8) {
		if n == 0 || nparts == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		bs := 1 + int(b%3)
		g := randomUnitGraph(rng, int(n), 0.02+0.3*rng.Float64())
		parts := randomParts(rng, int(n), 1+int(nparts%8))
		if err := checkUnitEnvelopes(g, bs, parts); err != nil {
			t.Fatalf("%d units of %d dofs: %v", n, bs, err)
		}
	})
}
