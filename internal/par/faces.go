package par

import (
	"sort"

	"prometheus/internal/mesh"
)

// ParallelIdentifyFaces runs the distributed face identification of
// section 4.5. Facets are assigned to ranks by facetOwner; in one round
// each rank runs the serial algorithm of Figure 3 on its local facets
// with face ids drawn from the tuple <rank, local id>. In the next round,
// facet pairs that straddle a rank boundary and satisfy the angle test
// (against both trees' root normals, read from the ids and roots the
// neighbour wrote in the first round: the role of the paper's "seed"
// facets) generate edges in the face-id graph G_fid. The per-rank edge
// lists are folded in rank order — the paper's global reduction, which it
// notes is not a scalable construct "but the constants are very small" —
// and every facet takes the largest face id reachable from its own,
// exactly as in the paper. The resulting faces are not guaranteed to
// match the serial algorithm's, but are "close enough" (section 4.5); the
// tests check the structural invariants instead of exact equality.
//
// The returned ids are dense 1-based ints; the face count is also returned.
func ParallelIdentifyFaces(comm *Comm, facets []mesh.Facet, adj [][]int, facetOwner []int, tol float64) ([]int, int) {
	p := comm.Size()
	if len(facetOwner) != len(facets) {
		panic("par: one owner per facet required")
	}

	// Encode <rank, local id> as rank*stride + local. Local ids are
	// 1-based so encoded ids are always positive.
	stride := len(facets) + 1

	local := make([][]int, p) // facets per rank
	for f, o := range facetOwner {
		local[o] = append(local[o], f)
	}

	globalID := make([]int, len(facets)) // encoded id per facet
	rootOf := make([]int, len(facets))   // root facet of each facet's tree
	type fidEdge [2]int
	edgeSets := make([][]fidEdge, p)

	// Serial Figure-3 BFS restricted to local facets, publishing each
	// facet's encoded id and tree root.
	comm.Round(func(me int) {
		mine := local[me]
		inMine := make(map[int]bool, len(mine))
		for _, f := range mine {
			inMine[f] = true
		}
		id := make(map[int]int, len(mine))
		root := make(map[int]int, len(mine))
		current := 0
		var list []int
		for _, f := range mine {
			if id[f] != 0 {
				continue
			}
			current++
			rootNorm := facets[f].Normal
			id[f] = current
			root[f] = f
			list = append(list[:0], f)
			for len(list) > 0 {
				g := list[0]
				list = list[1:]
				for _, f1 := range adj[g] {
					if !inMine[f1] || id[f1] != 0 {
						continue
					}
					if rootNorm.Dot(facets[f1].Normal) > tol &&
						facets[g].Normal.Dot(facets[f1].Normal) > tol {
						id[f1] = current
						root[f1] = f
						list = append(list, f1)
					}
				}
			}
		}
		for _, f := range mine {
			globalID[f] = me*stride + id[f]
			rootOf[f] = root[f]
		}
	})
	// Cross-rank seed edges: for each local facet adjacent to a facet on
	// another rank, apply the angle test using both trees' root normals
	// (the seed facet carries its root normal in the paper).
	comm.Round(func(me int) {
		for _, f := range local[me] {
			for _, f1 := range adj[f] {
				if facetOwner[f1] == me {
					continue
				}
				rn := facets[rootOf[f]].Normal
				rn1 := facets[rootOf[f1]].Normal
				if rn.Dot(facets[f1].Normal) > tol &&
					rn1.Dot(facets[f].Normal) > tol &&
					facets[f].Normal.Dot(facets[f1].Normal) > tol {
					edgeSets[me] = append(edgeSets[me], fidEdge{globalID[f], globalID[f1]})
				}
			}
		}
	})

	// Union-find over encoded ids; each facet takes the largest id
	// reachable in G_fid.
	parent := make(map[int]int)
	var find func(x int) int
	find = func(x int) int {
		px, ok := parent[x]
		if !ok || px == x {
			parent[x] = x
			return x
		}
		rt := find(px)
		parent[x] = rt
		return rt
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Keep the larger id as the representative ("largest face ID that
		// f.face_ID can reach").
		if ra < rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	for f := range facets {
		find(globalID[f])
	}
	for _, es := range edgeSets {
		for _, e := range es {
			union(e[0], e[1])
		}
	}
	// Densify.
	repToDense := make(map[int]int)
	out := make([]int, len(facets))
	nFaces := 0
	reps := make([]int, 0)
	for f := range facets {
		rt := find(globalID[f])
		if _, ok := repToDense[rt]; !ok {
			reps = append(reps, rt)
			repToDense[rt] = 0
		}
	}
	sort.Ints(reps)
	for _, rt := range reps {
		nFaces++
		repToDense[rt] = nFaces
	}
	for f := range facets {
		out[f] = repToDense[find(globalID[f])]
	}
	return out, nFaces
}

// FacetOwnerFromVerts derives a facet partition from a vertex partition:
// each facet goes to the owner of its smallest vertex id (a deterministic
// stand-in for the paper's element-overlap construction of F_p).
func FacetOwnerFromVerts(facets []mesh.Facet, vertOwner []int) []int {
	out := make([]int, len(facets))
	for i, f := range facets {
		min := f.Verts[0]
		for _, v := range f.Verts[1:] {
			if v < min {
				min = v
			}
		}
		out[i] = vertOwner[min]
	}
	return out
}
