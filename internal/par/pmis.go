package par

import (
	"slices"

	"prometheus/internal/check"
	"prometheus/internal/graph"
)

// ParallelMIS runs the partition-based parallel maximal independent set
// algorithm of section 4.2 (and [Adams 1998]). Vertices are assigned to
// ranks by owner; each rank sweeps its local vertices in the given global
// traversal order, selecting a vertex v only when every neighbour v1 is
// deleted, or v outranks v1, or they have equal rank and v's processor
// number does not exceed v1's (the paper's tie-break), with the immortal
// (corner) rule layered on top: immortal vertices are always selectable and
// can never be deleted, and an undone immortal neighbour blocks everyone
// else. Each iteration is three rounds: the sweep, which posts the ghost
// deletions to their owners; applying them and posting the owned boundary
// states; applying those states. The loop ends when the folded per-rank
// counts find no undone vertices.
//
// The returned slice is the sorted selected set; it satisfies the MIS
// invariants (independence among mortals, maximality) for any number of
// ranks and any owner assignment, and matches the heuristic structure of
// the serial algorithm.
func ParallelMIS(comm *Comm, g *graph.Graph, owner []int, order []int, rank []int, immortal []bool) []int {
	if len(owner) != g.N {
		panic("par: owner must assign every vertex")
	}
	if len(order) != g.N {
		panic("par: order must be a permutation of the vertices")
	}
	p := comm.Size()

	rk := func(v int) int {
		if rank == nil {
			return 0
		}
		return rank[v]
	}
	imm := func(v int) bool { return immortal != nil && immortal[v] }

	// Per rank: local vertices in traversal order, neighbouring ranks in
	// ascending order, and owned boundary vertices (those with a
	// cross-rank edge). A boundary vertex's authoritative state is
	// re-broadcast every round so that third-party deletions reach every
	// rank that ghosts it.
	localOrder := make([][]int, p)
	for _, v := range order {
		localOrder[owner[v]] = append(localOrder[owner[v]], v)
	}
	isNeighbour := make([]bool, p*p)
	boundary := make([][]int, p)
	for v := 0; v < g.N; v++ {
		onBoundary := false
		for _, w := range g.Neighbors(v) {
			if owner[v] != owner[w] {
				isNeighbour[owner[v]*p+owner[w]] = true
				onBoundary = true
			}
		}
		if onBoundary {
			boundary[owner[v]] = append(boundary[owner[v]], v)
		}
	}
	neighbours := make([][]int, p)
	for k, nb := range isNeighbour {
		if nb {
			neighbours[k/p] = append(neighbours[k/p], k%p)
		}
	}

	type update struct {
		v int
		s int8
	}
	state := make([][]int8, p)     // per rank's view: Undone/Selected/Deleted
	ghostDel := make([][][]int, p) // ghostDel[me][k]: deletions of neighbours[me][k]'s vertices
	out := make([][]update, p)     // per rank's boundary states
	for me := range state {
		state[me] = make([]int8, g.N)
		ghostDel[me] = make([][]int, len(neighbours[me]))
	}
	delMail := NewMail[[]int](comm)
	stateMail := NewMail[[]update](comm)
	undone := make([]int, p)
	changed := make([]int, p)

	// canSelect implements the paper's test: all neighbours deleted, or
	// outranked, or rank tie broken by processor number (local ties are
	// resolved by the sweep order itself).
	canSelect := func(me int, st []int8, v int) bool {
		if imm(v) {
			return true
		}
		for _, w := range g.Neighbors(v) {
			if st[w] != graph.Undone {
				continue
			}
			if imm(w) {
				return false
			}
			switch {
			case rk(v) > rk(w):
				// outranks w: fine
			case rk(v) == rk(w) && me <= owner[w]:
				// tie broken in our favour (same rank: local order)
			default:
				return false
			}
		}
		return true
	}

	for {
		// Sweep the local vertices; deletions of ghosts go to their owners.
		comm.Round(func(me int) {
			st := state[me]
			del := ghostDel[me]
			for k := range del {
				del[k] = del[k][:0]
			}
			changed[me] = 0
			for _, v := range localOrder[me] {
				if st[v] != graph.Undone {
					continue
				}
				// A selected neighbour covers v.
				if !imm(v) {
					covered := false
					for _, w := range g.Neighbors(v) {
						if st[w] == graph.Selected {
							covered = true
							break
						}
					}
					if covered {
						st[v] = graph.Deleted
						changed[me]++
						continue
					}
				}
				if !canSelect(me, st, v) {
					continue
				}
				st[v] = graph.Selected
				changed[me]++
				for _, w := range g.Neighbors(v) {
					if st[w] == graph.Undone && !imm(w) {
						st[w] = graph.Deleted
						changed[me]++
						if owner[w] != me {
							k := slices.Index(neighbours[me], owner[w])
							del[k] = append(del[k], w)
						}
					}
				}
			}
			for k, nb := range neighbours[me] {
				delMail.Post(me, nb, del[k], 8*len(del[k])+8)
			}
		})
		// Apply the deletions of owned vertices, then broadcast the owned
		// boundary states. State views only advance (states are facts:
		// Undone -> Selected/Deleted).
		comm.Round(func(me int) {
			st := state[me]
			for _, nb := range neighbours[me] {
				for _, v := range delMail.Take(me, nb) {
					if st[v] == graph.Undone {
						st[v] = graph.Deleted
					}
				}
			}
			out[me] = out[me][:0]
			for _, v := range boundary[me] {
				out[me] = append(out[me], update{v, st[v]})
			}
			for _, nb := range neighbours[me] {
				stateMail.Post(me, nb, out[me], 9*len(out[me])+8)
			}
		})
		// Apply the neighbours' boundary states and count what is left.
		comm.Round(func(me int) {
			st := state[me]
			for _, nb := range neighbours[me] {
				for _, u := range stateMail.Take(me, nb) {
					if st[u.v] == graph.Undone {
						st[u.v] = u.s
					}
				}
			}
			undone[me] = 0
			for _, v := range localOrder[me] {
				if st[v] == graph.Undone {
					undone[me]++
				}
			}
		})
		if sum(undone) == 0 {
			break
		}
		// The algorithm provably makes global progress each round (the
		// globally best-ranked undone vertex is always selectable); a
		// stalled round would be a bug, not a livelock to spin on.
		if sum(changed) == 0 {
			panic("par: ParallelMIS stalled")
		}
	}

	selected := make([]bool, g.N)
	for me, mine := range localOrder {
		for _, v := range mine {
			if state[me][v] == graph.Selected {
				selected[v] = true
			}
		}
	}

	var mis []int
	for v, s := range selected {
		if s {
			mis = append(mis, v)
		}
	}
	if check.Enabled {
		check.SortedUnique(mis, g.N, "par.ParallelMIS mis")
		check.IndependentSet(mis, g.N, g.Neighbors, immortal, "par.ParallelMIS")
	}
	return mis
}

// sum folds a per-rank reduction slice in rank order.
func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}
