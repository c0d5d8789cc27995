package graph

import "slices"

// NaturalOrder returns the identity ordering 0..n-1: the "natural" order of
// section 4.7 for meshes generated block-regularly (as ours are).
func NaturalOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// RandomOrder returns a deterministic pseudo-random permutation of 0..n-1
// derived from seed (splitmix64-driven Fisher-Yates). The paper's random
// ordering heuristic produces sparser MISs than natural orderings.
func RandomOrder(n int, seed uint64) []int {
	o := NaturalOrder(n)
	s := seed
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		o[i], o[j] = o[j], o[i]
	}
	return o
}

// CuthillMcKee returns the Cuthill-McKee ordering of the graph, the cache
// friendly "natural" ordering cited in section 4.7 ([24]). Each connected
// component is rooted at its minimum-degree vertex; within a BFS level,
// vertices are visited in order of increasing degree. The returned slice
// perm satisfies: perm[k] = original index of the k-th vertex in the new
// order.
func CuthillMcKee(g *Graph) []int {
	perm := make([]int, g.N)
	cuthillMcKee(g, nil, 0, NaturalOrder(g.N), perm, make([]int, g.N), make([]int, g.N), make([]bool, g.N))
	return perm
}

// ReverseCuthillMcKee returns the RCM ordering (CM reversed), the standard
// fill-reducing ordering used by the sparse Cholesky coarsest-grid solver.
func ReverseCuthillMcKee(g *Graph) []int {
	p := CuthillMcKee(g)
	slices.Reverse(p)
	return p
}

// cuthillMcKee writes to out the Cuthill-McKee order of the subgraph of g
// on members: the edges (v, w) of g between two vertices of part p
// (part[w] == p; every edge when part is nil), self-loops left out. Each
// connected component is rooted at its vertex of least degree in the
// subgraph, the first in members among equals; the neighbours a vertex
// queues join in increasing degree, ties in adjacency order. roots is
// scratch of len(members); deg and seen are per-vertex scratch, of which
// only the members' entries are read or written, so parts of one partition
// order side by side.
func cuthillMcKee(g *Graph, part []int, p int, members, out, roots, deg []int, seen []bool) {
	for _, v := range members {
		d := 0
		for _, w := range g.Neighbors(v) {
			if w != v && (part == nil || part[w] == p) {
				d++
			}
		}
		deg[v], seen[v] = d, false
	}
	copy(roots, members)
	slices.SortStableFunc(roots, func(a, b int) int { return deg[a] - deg[b] })
	n := 0
	for _, r := range roots {
		if seen[r] {
			continue
		}
		seen[r] = true
		out[n] = r
		n++
		for head := n - 1; head < n; head++ {
			queued := n
			for _, w := range g.Neighbors(out[head]) {
				if (part == nil || part[w] == p) && !seen[w] {
					seen[w] = true
					out[n] = w
					n++
				}
			}
			// Insertion sort by degree, stable: the new entries are one
			// vertex's neighbours, a handful.
			for i := queued + 1; i < n; i++ {
				w := out[i]
				j := i
				for ; j > queued && deg[out[j-1]] > deg[w]; j-- {
					out[j] = out[j-1]
				}
				out[j] = w
			}
		}
	}
}

// PartOrder orders every part of a partition of g by reverse
// Cuthill-McKee on the part's own subgraph (the edges of g between two of
// its members), the order a block smoother lays each block's factor out
// in, which keeps its envelope narrow. It is a pool.ItemKernel over parts:
// item p writes part p's members, in that order, to its own window of one
// array, and reads and writes only its members' entries of the per-vertex
// scratch, so parts order side by side.
type PartOrder struct {
	g          *Graph
	part       []int
	members    [][]int
	off        []int // part p's window is [off[p], off[p+1])
	out, roots []int
	deg        []int
	seen       []bool
}

// NewPartOrder returns the ordering of the nparts parts of g that part
// assigns (part[v] in [0, nparts)), nothing ordered yet.
func NewPartOrder(g *Graph, part []int, nparts int) *PartOrder {
	o := &PartOrder{
		g: g, part: part, members: PartMembers(part, nparts), off: make([]int, nparts+1),
		out: make([]int, g.N), roots: make([]int, g.N), deg: make([]int, g.N), seen: make([]bool, g.N),
	}
	for p, m := range o.members {
		o.off[p+1] = o.off[p] + len(m)
	}
	return o
}

// Items implements pool.ItemKernel over the parts [lo, hi).
func (o *PartOrder) Items(_, lo, hi int) {
	for p := lo; p < hi; p++ {
		w := o.out[o.off[p]:o.off[p+1]]
		cuthillMcKee(o.g, o.part, p, o.members[p], w, o.roots[o.off[p]:o.off[p+1]], o.deg, o.seen)
		slices.Reverse(w)
	}
}

// Parts returns every part's members in the order Items wrote them, as
// windows of Order.
func (o *PartOrder) Parts() [][]int {
	parts := make([][]int, len(o.members))
	for p := range parts {
		parts[p] = o.out[o.off[p]:o.off[p+1]:o.off[p+1]]
	}
	return parts
}

// Order returns the array whose windows Items writes, for
// TestKernelContract.
func (o *PartOrder) Order() []int { return o.out }
