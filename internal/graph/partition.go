package graph

import (
	"sort"

	"prometheus/internal/geom"
)

// GreedyPartition splits the graph into nparts connected-ish parts of
// near-equal size by repeated BFS growth from the lowest-numbered
// unassigned vertex (a graph-growing heuristic standing in for METIS,
// which the paper uses both for the processor decomposition and for the
// block-Jacobi smoother blocks). It returns part[v] in [0, nparts).
// g may list a vertex among its own neighbours, as a square matrix's
// pattern lists its diagonal: a vertex is assigned before its list is
// read, so the self entry changes nothing, and the pattern of a
// structurally symmetric matrix partitions as NewFromPattern's graph of it.
func GreedyPartition(g *Graph, nparts int) []int {
	if nparts < 1 {
		panic("graph: nparts must be >= 1")
	}
	part := make([]int, g.N)
	for i := range part {
		part[i] = -1
	}
	// Strict per-part quotas: the first N%nparts parts get one extra
	// vertex. A part that exhausts its BFS frontier before reaching its
	// quota is topped up from a fresh seed (enclaves cannot blow up any
	// part's size, which matters because the block smoother factors each
	// part densely).
	quota := make([]int, nparts)
	for p := range quota {
		quota[p] = g.N / nparts
		if p < g.N%nparts {
			quota[p]++
		}
	}
	nextSeed := 0
	seed := func() int {
		for ; nextSeed < g.N; nextSeed++ {
			if part[nextSeed] < 0 {
				return nextSeed
			}
		}
		return -1
	}
	var queue []int
	for p := 0; p < nparts; p++ {
		size := 0
		queue = queue[:0]
		for size < quota[p] {
			if len(queue) == 0 {
				s := seed()
				if s < 0 {
					break
				}
				part[s] = p
				size++
				queue = append(queue, s)
				continue
			}
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if part[w] < 0 && size < quota[p] {
					part[w] = p
					size++
					queue = append(queue, w)
				}
			}
		}
	}
	return part
}

// RCB performs recursive coordinate bisection of the points into nparts
// parts (nparts need not be a power of two; splits are weighted). It is the
// geometric stand-in for the paper's SMP-then-processor two-level
// decomposition. Returns part[v] in [0, nparts).
func RCB(pts []geom.Vec3, nparts int) []int {
	part := make([]int, len(pts))
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	rcbRecurse(pts, idx, 0, nparts, part)
	return part
}

func rcbRecurse(pts []geom.Vec3, idx []int, base, nparts int, part []int) {
	if nparts <= 1 || len(idx) == 0 {
		for _, v := range idx {
			part[v] = base
		}
		return
	}
	// Choose the longest axis of the bounding box of this subset.
	box := geom.AABB{Min: pts[idx[0]], Max: pts[idx[0]]}
	for _, v := range idx[1:] {
		box.Include(pts[v])
	}
	d := box.Max.Sub(box.Min)
	axis := 0
	if d.Y > d.X && d.Y >= d.Z {
		axis = 1
	} else if d.Z > d.X && d.Z > d.Y {
		axis = 2
	}
	coord := func(v int) float64 {
		switch axis {
		case 0:
			return pts[v].X
		case 1:
			return pts[v].Y
		default:
			return pts[v].Z
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return coord(idx[a]) < coord(idx[b]) })
	left := nparts / 2
	right := nparts - left
	cut := len(idx) * left / nparts
	rcbRecurse(pts, idx[:cut], base, left, part)
	rcbRecurse(pts, idx[cut:], base+left, right, part)
}

// PartSizes returns the size of each part in a partition vector.
func PartSizes(part []int, nparts int) []int {
	sizes := make([]int, nparts)
	for _, p := range part {
		sizes[p]++
	}
	return sizes
}

// CutEdges returns the number of undirected edges crossing between parts.
func CutEdges(g *Graph, part []int) int {
	cut := 0
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w && part[v] != part[w] {
				cut++
			}
		}
	}
	return cut
}

// PartMembers returns, for each part, the ascending list of vertices in
// it. The lists are capacity-limited windows of one shared array.
func PartMembers(part []int, nparts int) [][]int {
	members := make([][]int, nparts)
	flat := make([]int, len(part))
	off := 0
	for p, n := range PartSizes(part, nparts) {
		members[p] = flat[off : off : off+n]
		off += n
	}
	for v, p := range part {
		members[p] = append(members[p], v)
	}
	return members
}

// TwoLevelRCB reproduces the paper's CLUMP decomposition (section 5): the
// problem is first partitioned onto the SMP nodes, then each node's
// subproblem is partitioned across its processors. The returned ids are
// global processor ranks in [0, nodes*procsPerNode); ranks r with equal
// r/procsPerNode share an SMP node, so halo traffic within a node benefits
// from the faster intra-node fabric.
func TwoLevelRCB(pts []geom.Vec3, nodes, procsPerNode int) []int {
	if nodes < 1 || procsPerNode < 1 {
		panic("graph: TwoLevelRCB needs positive node and processor counts")
	}
	nodeOf := RCB(pts, nodes)
	out := make([]int, len(pts))
	members := PartMembers(nodeOf, nodes)
	for node, verts := range members {
		local := make([]geom.Vec3, len(verts))
		for i, v := range verts {
			local[i] = pts[v]
		}
		sub := RCB(local, procsPerNode)
		for i, v := range verts {
			out[v] = node*procsPerNode + sub[i]
		}
	}
	return out
}
