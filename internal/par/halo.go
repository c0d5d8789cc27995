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
	// send[r] = the indices owned by r that each neighbour needs, with
	// the packing buffer of that directed edge; recv[r] = the indices r
	// needs from each neighbour. Both are in ascending neighbour order.
	send, recv [][]haloEdge
	mail       *Mail[[]float64] // bound to the last Comm a product ran on
}

// haloEdge is one direction of one neighbour pair.
type haloEdge struct {
	peer int
	idx  []int
	buf  []float64 // send edges only: bs values per index
}

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
// the blocked analogue of PETSc's BAIJ vector scatter.
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
		send:   make([][]haloEdge, nranks),
		recv:   make([][]haloEdge, nranks),
	}
	for i, o := range owner {
		h.Rows[o] = append(h.Rows[o], i)
	}
	// needed[r*nranks+o] = the ghost columns rank r needs from rank o.
	needed := make([]map[int]bool, nranks*nranks)
	for i := 0; i < n; i++ {
		r := owner[i]
		for _, j := range rowCols(i) {
			if o := owner[j]; o != r {
				k := r*nranks + o
				if needed[k] == nil {
					needed[k] = make(map[int]bool)
				}
				needed[k][j] = true
			}
		}
	}
	for k, set := range needed {
		if set == nil {
			continue
		}
		r, o := k/nranks, k%nranks
		idx := make([]int, 0, len(set))
		for j := range set {
			idx = append(idx, j)
		}
		sort.Ints(idx)
		h.recv[r] = append(h.recv[r], haloEdge{peer: o, idx: idx})
	}
	// The send edge o→r mirrors r's receive edge from o; taking r in
	// ascending order keeps every rank's send edges in receiver order.
	for r := 0; r < nranks; r++ {
		for _, e := range h.recv[r] {
			h.send[e.peer] = append(h.send[e.peer], haloEdge{peer: r, idx: e.idx, buf: make([]float64, bs*len(e.idx))})
		}
	}
	if check.Enabled {
		check.Partition(owner, nranks, "par.NewHalo")
		for r := 0; r < nranks; r++ {
			check.SortedUnique(h.Rows[r], n, "par.NewHalo rows")
			for _, e := range h.recv[r] {
				check.Assert(e.peer != r, "par.NewHalo: rank %d receives ghosts from itself", r)
				check.SortedUnique(e.idx, n, "par.NewHalo recv list")
				for _, j := range e.idx {
					check.Assert(owner[j] == e.peer, "par.NewHalo: rank %d expects index %d from rank %d, but it is owned by %d", r, j, e.peer, owner[j])
				}
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
	for _, e := range h.recv[r] {
		n += len(e.idx)
	}
	return h.BS * n
}

// exchange runs the round that packs and posts every rank's ghost values
// of xs (xs[r] is rank r's globally indexed x, valid on the entries r
// owns), each rank's under one par.halo.exchange span; unpack, in the
// next round, takes them.
func (h *Halo) exchange(c *Comm, xs [][]float64) {
	if h.mail == nil || h.mail.c != c {
		h.mail = NewMail[[]float64](c)
	}
	bs := h.BS
	c.Round(func(me int) {
		sp := obs.StartRank(obsHaloEv, me)
		x := xs[me]
		for _, e := range h.send[me] {
			vals := e.buf
			if bs == 1 {
				for k, j := range e.idx {
					vals[k] = x[j]
				}
			} else {
				for k, j := range e.idx {
					copy(vals[bs*k:bs*k+bs], x[bs*j:bs*j+bs])
				}
			}
			obs.AddComm(obsHaloEv, me, 1, int64(8*len(vals)))
			h.mail.Post(me, e.peer, vals, 8*len(vals))
		}
		sp.End()
	})
}

// unpack writes the ghost values rank me receives into x.
func (h *Halo) unpack(me int, x []float64) {
	bs := h.BS
	for _, e := range h.recv[me] {
		vals := h.mail.Take(me, e.peer)
		if check.Enabled {
			check.Assert(len(vals) == bs*len(e.idx), "par.Halo: rank %d received %d ghost values from %d, want %d", me, len(vals), e.peer, bs*len(e.idx))
		}
		if bs == 1 {
			for k, j := range e.idx {
				x[j] = vals[k]
			}
		} else {
			for k, j := range e.idx {
				copy(x[bs*j:bs*j+bs], vals[bs*k:bs*k+bs])
			}
		}
	}
}

// MulVec computes y = A·x in two rounds on c: the ghost exchange, then
// every rank's owned rows. xs[r] is rank r's copy of x, valid on the
// entries r owns on entry and on the ghosts r needs on return; y is
// shared, each rank writing only its own rows. Flops are counted.
func (h *Halo) MulVec(c *Comm, a *sparse.CSR, xs [][]float64, y []float64) {
	h.exchange(c, xs)
	c.Round(func(me int) {
		x := xs[me]
		h.unpack(me, x)
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
		c.AddFlops(me, 2*int64(nnz))
	})
}

// MulVecBSR is MulVec for the block rows of a blocked matrix, after a
// node-granular ghost exchange. Requires a halo built by NewBlockHalo with
// the same block size as a. The per-node kernel is the same register-blocked
// micro-kernel as BSR.MulVec, so the owned rows come out bitwise identical
// to the serial product.
func (h *Halo) MulVecBSR(c *Comm, a *sparse.BSR, xs [][]float64, y []float64) {
	if check.Enabled {
		check.Assert(h.BS == a.B, "par.Halo.MulVecBSR: halo block size %d vs matrix %d", h.BS, a.B)
	}
	h.exchange(c, xs)
	c.Round(func(me int) {
		x := xs[me]
		h.unpack(me, x)
		b := a.B
		nnzb := 0
		for _, ib := range h.Rows[me] {
			a.MulVecRange(x, y, b*ib, b*ib+b)
			nnzb += a.RowPtr[ib+1] - a.RowPtr[ib]
		}
		c.AddFlops(me, 2*int64(nnzb*b*b))
	})
}
