// Package graph provides the vertex-graph machinery of the coarsening
// algorithm: adjacency graphs in CSR form, the greedy maximal independent
// set algorithm of section 4.1 with the rank and ordering heuristics of
// sections 4.2 and 4.7, Cuthill-McKee ("natural") and deterministic random
// vertex orderings, connected components, and graph partitioners standing
// in for METIS (greedy graph-growing) and for the geometric decomposition
// (recursive coordinate bisection).
package graph

import (
	"sort"

	"prometheus/internal/sortutil"
)

// Graph is an undirected graph in CSR adjacency form. Self-loops are not
// stored; the adjacency of each vertex is sorted.
type Graph struct {
	N   int
	Ptr []int // len N+1
	Adj []int // len 2*edges
}

// NewGraph builds a graph from an edge list. Duplicate and self edges are
// discarded.
func NewGraph(n int, edges [][2]int) *Graph {
	adj := make([]map[int]struct{}, n)
	add := func(a, b int) {
		if adj[a] == nil {
			adj[a] = make(map[int]struct{}, 8)
		}
		adj[a][b] = struct{}{}
	}
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		add(e[0], e[1])
		add(e[1], e[0])
	}
	return fromSets(n, adj)
}

// NewFromPattern builds the graph of a square sparse matrix straight from
// its CSR pattern (rowPtr of length n+1; colIdx sorted and duplicate-free
// within each row, the CSR invariant): the symmetrised strict upper
// triangle, i.e. exactly NewGraph over the edges (i, j) of every stored
// entry with i < j. One counting pass sizes the adjacency, one fill pass
// writes it; no sorting is needed because a vertex receives its lower
// neighbours from earlier rows in ascending row order and its upper
// neighbours from its own row in ascending column order.
func NewFromPattern(n int, rowPtr, colIdx []int) *Graph {
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if i < j {
				ptr[i+1]++
				ptr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int, ptr[n])
	next := make([]int, n)
	copy(next, ptr)
	for i := 0; i < n; i++ {
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if i < j {
				adj[next[i]] = j
				next[i]++
				adj[next[j]] = i
				next[j]++
			}
		}
	}
	return &Graph{N: n, Ptr: ptr, Adj: adj}
}

func fromSets(n int, adj []map[int]struct{}) *Graph {
	ptr := make([]int, n+1)
	total := 0
	for i, s := range adj {
		ptr[i] = total
		total += len(s)
	}
	ptr[n] = total
	flat := make([]int, total)
	var buf []int
	for i, s := range adj {
		buf = sortutil.KeysInto(buf, s)
		copy(flat[ptr[i]:ptr[i+1]], buf)
	}
	return &Graph{N: n, Ptr: ptr, Adj: flat}
}

// Neighbors returns the adjacency list of v (shared storage; do not modify).
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// HasEdge reports whether (a, b) is an edge.
func (g *Graph) HasEdge(a, b int) bool {
	nb := g.Neighbors(a)
	k := sort.SearchInts(nb, b)
	return k < len(nb) && nb[k] == b
}

// SubgraphWithout returns a copy of g with the given undirected edges
// removed. The edge set is given as pairs; pairs not present are ignored.
func (g *Graph) SubgraphWithout(remove [][2]int) *Graph {
	del := make(map[[2]int]struct{}, len(remove))
	for _, e := range remove {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		del[[2]int{a, b}] = struct{}{}
	}
	adj := make([]map[int]struct{}, g.N)
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			a, b := v, w
			if a > b {
				a, b = b, a
			}
			if _, dead := del[[2]int{a, b}]; dead {
				continue
			}
			if adj[v] == nil {
				adj[v] = make(map[int]struct{}, g.Degree(v))
			}
			adj[v][w] = struct{}{}
		}
	}
	return fromSets(g.N, adj)
}

// FilterEdges returns a copy of g keeping only edges for which keep returns
// true. keep is called once per undirected edge with a < b, in ascending
// order of a, then b. One pass over the adjacency marks what is kept: an
// entry (v, w) with w < v copies the verdict its mirror (w, v) got when row
// w was visited, found through a cursor per vertex that walks that row's
// upper neighbours in the order the rows above reach them. A compacting
// copy then keeps the marked entries, so every row stays sorted.
func (g *Graph) FilterEdges(keep func(a, b int) bool) *Graph {
	kept := make([]bool, len(g.Adj))
	// upper[w] is the slot in row w of the next higher neighbour to visit
	// w's row: its first neighbour above w, to start with.
	upper := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		row := g.Neighbors(v)
		upper[v] = g.Ptr[v] + sort.SearchInts(row, v+1)
	}
	n := 0
	for v := 0; v < g.N; v++ {
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			switch w := g.Adj[k]; {
			case w < v:
				kept[k] = kept[upper[w]]
				upper[w]++
			case w > v:
				kept[k] = keep(v, w)
			}
			if kept[k] {
				n++
			}
		}
	}
	ptr := make([]int, g.N+1)
	adj := make([]int, 0, n)
	for v := 0; v < g.N; v++ {
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			if kept[k] {
				adj = append(adj, g.Adj[k])
			}
		}
		ptr[v+1] = len(adj)
	}
	return &Graph{N: g.N, Ptr: ptr, Adj: adj}
}

// Components returns the connected component id of every vertex and the
// number of components.
func (g *Graph) Components() ([]int, int) {
	comp := make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	queue := make([]int, 0, g.N)
	for s := 0; s < g.N; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = nc
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = nc
					queue = append(queue, w)
				}
			}
		}
		nc++
	}
	return comp, nc
}
