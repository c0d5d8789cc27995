package par

import (
	"sort"

	"prometheus/internal/check"
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// Halo describes the communication pattern of a row-partitioned sparse
// matrix-vector product: which x-entries each rank must receive from (and
// send to) each neighbouring rank before computing its rows. It mirrors the
// vector scatter setup of PETSc used by the paper's numerical kernels.
type Halo struct {
	NRanks int
	// BS is the number of scalar values carried per exchanged index: 1 for
	// scalar (CSR) halos, the block size for node-granular (BSR) halos
	// built by NewBlockHalo. Blocked messages ship one index plus BS
	// values per node, cutting the index traffic of the exchange by BS.
	BS    int
	Owner []int   // column/row (node) index -> owning rank
	Rows  [][]int // rank -> rows (block rows when BS > 1) it owns, ascending
	// send[r][nb] = indices owned by r that neighbour nb needs.
	send []map[int][]int
	// recv[r][nb] = indices owned by nb that r needs.
	recv []map[int][]int
	// credits[r][nb] recycles the packing buffers of the directed edge
	// r→nb: the sender draws a buffer, the receiver returns it after
	// unpacking. Two prefilled credits per edge keep Exchange both
	// allocation-free and deadlock-free: a sender entering round k has
	// finished round k-1, so its neighbour has finished round k-2 and
	// returned that round's buffer.
	credits []map[int]chan *[]float64
}

// haloTag is the message tag of ghost-value exchanges. Tags are unique
// across the package (see pmis.go) so each tag names exactly one payload
// type; RecvAs panics with both types if one ever carries another.
const haloTag = 3

// NewHalo builds the halo pattern for matrix a with the given row/column
// ownership (square matrices: rows and columns share the partition).
func NewHalo(a *sparse.CSR, owner []int, nranks int) *Halo {
	if len(owner) != a.NRows || a.NRows != a.NCols {
		panic("par: NewHalo wants a square matrix with one owner per row")
	}
	return buildHalo(a.NRows, func(i int) []int {
		cols, _ := a.Row(i)
		return cols
	}, owner, nranks, 1)
}

// NewBlockHalo builds the node-granular halo pattern for a blocked matrix:
// nodeOwner assigns each block row/column to a rank, and every exchanged
// message carries one node index plus a.B scalar values per ghost node —
// the blocked analogue of PETSc's BAIJ vector scatter. The tag discipline
// is shared with the scalar halo (one tag, one payload type).
func NewBlockHalo(a *sparse.BSR, nodeOwner []int, nranks int) *Halo {
	if len(nodeOwner) != a.NBRows || a.NBRows != a.NBCols {
		panic("par: NewBlockHalo wants a square block matrix with one owner per node")
	}
	return buildHalo(a.NBRows, func(i int) []int {
		return a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
	}, nodeOwner, nranks, a.B)
}

// buildHalo constructs the send/recv pattern over an n-row adjacency (rowCols
// yields the column indices of row i) with bs scalar values per index.
func buildHalo(n int, rowCols func(i int) []int, owner []int, nranks, bs int) *Halo {
	h := &Halo{
		NRanks: nranks,
		BS:     bs,
		Owner:  owner,
		Rows:   make([][]int, nranks),
		send:   make([]map[int][]int, nranks),
		recv:   make([]map[int][]int, nranks),
	}
	for r := 0; r < nranks; r++ {
		h.send[r] = make(map[int][]int)
		h.recv[r] = make(map[int][]int)
	}
	for i, o := range owner {
		h.Rows[o] = append(h.Rows[o], i)
	}
	// Collect needed ghost columns per rank.
	needed := make([]map[int]bool, nranks)
	for r := range needed {
		needed[r] = make(map[int]bool)
	}
	for i := 0; i < n; i++ {
		r := owner[i]
		for _, j := range rowCols(i) {
			if owner[j] != r {
				needed[r][j] = true
			}
		}
	}
	for r := 0; r < nranks; r++ {
		for j := range needed[r] {
			o := owner[j]
			h.recv[r][o] = append(h.recv[r][o], j)
		}
		for o := range h.recv[r] {
			sort.Ints(h.recv[r][o])
		}
	}
	for r := 0; r < nranks; r++ {
		for o, list := range h.recv[r] {
			h.send[o][r] = list
		}
	}
	h.credits = make([]map[int]chan *[]float64, nranks)
	for r := 0; r < nranks; r++ {
		h.credits[r] = make(map[int]chan *[]float64, len(h.send[r]))
		for nb, idx := range h.send[r] {
			ch := make(chan *[]float64, 2)
			for k := 0; k < cap(ch); k++ {
				buf := make([]float64, bs*len(idx))
				ch <- &buf
			}
			h.credits[r][nb] = ch
		}
	}
	if check.Enabled {
		check.Partition(owner, nranks, "par.NewHalo")
		for r := 0; r < nranks; r++ {
			check.SortedUnique(h.Rows[r], n, "par.NewHalo rows")
			for nb, list := range h.recv[r] {
				check.Assert(nb != r, "par.NewHalo: rank %d receives ghosts from itself", r)
				check.SortedUnique(list, n, "par.NewHalo recv list")
				for _, j := range list {
					check.Assert(owner[j] == nb, "par.NewHalo: rank %d expects index %d from rank %d, but it is owned by %d", r, j, nb, owner[j])
				}
				// The mirrored send list must be the identical index set.
				check.Assert(len(h.send[nb][r]) == len(list), "par.NewHalo: send/recv mismatch between ranks %d and %d", nb, r)
			}
		}
	}
	return h
}

// GhostCount returns the number of ghost scalar values rank r receives per
// product — the paper's per-processor communication volume. For blocked
// halos each ghost node contributes BS values.
func (h *Halo) GhostCount(r int) int {
	n := 0
	for _, l := range h.recv[r] {
		n += len(l)
	}
	return h.BS * n
}

// Exchange updates the ghost entries of x visible to rank r. x is the
// globally indexed vector replicated on all ranks; only entries owned by r
// are assumed valid on entry, and on return the ghost entries r needs are
// valid too. Counts message traffic on the rank.
func (h *Halo) Exchange(r *Rank, x []float64) {
	sp := obs.StartRank(obsHaloEv, r.ID())
	h.exchange(r, x)
	sp.End()
}

// exchange is the span-free body of Exchange.
func (h *Halo) exchange(r *Rank, x []float64) {
	me := r.ID()
	bs := h.BS
	for nb, idx := range h.send[me] {
		bp := <-h.credits[me][nb] // recycled packing buffer for this edge
		vals := *bp
		if bs == 1 {
			for k, j := range idx {
				vals[k] = x[j]
			}
		} else {
			for k, j := range idx {
				copy(vals[bs*k:bs*k+bs], x[bs*j:bs*j+bs])
			}
		}
		obs.AddComm(obsHaloEv, me, 1, int64(8*len(vals)))
		r.Send(nb, haloTag, bp, 8*len(vals))
	}
	for nb, idx := range h.recv[me] {
		bp := RecvAs[*[]float64](r, nb, haloTag)
		vals := *bp
		if check.Enabled {
			check.Assert(len(vals) == bs*len(idx), "par.Halo.Exchange: rank %d received %d ghost values from %d, want %d", me, len(vals), nb, bs*len(idx))
		}
		if bs == 1 {
			for k, j := range idx {
				x[j] = vals[k]
			}
		} else {
			for k, j := range idx {
				copy(x[bs*j:bs*j+bs], vals[bs*k:bs*k+bs])
			}
		}
		h.credits[nb][me] <- bp // return the buffer to the sender's pool
	}
}

// MulVec computes y = A·x for the rows owned by rank r, after a ghost
// exchange. Rows owned by other ranks are left untouched in y, so a shared
// y across ranks is written without conflicts. Flops are counted.
func (h *Halo) MulVec(r *Rank, a *sparse.CSR, x, y []float64) {
	h.Exchange(r, x)
	me := r.ID()
	nnz := 0
	for _, i := range h.Rows[me] {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[lo:hi]
		vals := a.Val[lo:hi:hi]
		vals = vals[:len(cols)] // equal lengths let the compiler drop bounds checks
		s := 0.0
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] = s
		nnz += hi - lo
	}
	r.CountFlops(2 * int64(nnz))
}

// MulVecBSR computes y = A·x for the block rows owned by rank r, after a
// node-granular ghost exchange. Requires a halo built by NewBlockHalo with
// the same block size as a. The per-node kernel is the same register-blocked
// micro-kernel as BSR.MulVec, so the owned rows come out bitwise identical
// to the serial product.
func (h *Halo) MulVecBSR(r *Rank, a *sparse.BSR, x, y []float64) {
	if check.Enabled {
		check.Assert(h.BS == a.B, "par.Halo.MulVecBSR: halo block size %d vs matrix %d", h.BS, a.B)
	}
	h.Exchange(r, x)
	me := r.ID()
	b := a.B
	nnzb := 0
	for _, ib := range h.Rows[me] {
		a.MulVecRange(x, y, b*ib, b*ib+b)
		nnzb += a.RowPtr[ib+1] - a.RowPtr[ib]
	}
	r.CountFlops(2 * int64(nnzb*b*b))
}

// Dot returns the global inner product of x and y, each rank contributing
// its owned entries (BS scalars per owned node on blocked halos), via an
// all-reduce.
func (h *Halo) Dot(r *Rank, x, y []float64) float64 {
	me := r.ID()
	s := 0.0
	if h.BS == 1 {
		for _, i := range h.Rows[me] {
			s += x[i] * y[i]
		}
	} else {
		bs := h.BS
		for _, ib := range h.Rows[me] {
			for d := bs * ib; d < bs*ib+bs; d++ {
				s += x[d] * y[d]
			}
		}
	}
	r.CountFlops(2 * int64(h.BS*len(h.Rows[me])))
	return r.AllReduceSum(s)
}
