package prometheus

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prometheus/internal/core"
	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/pool"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

// The pool.Kernel contract, stated once and executably: MulVecRange(x, y,
// lo, hi) writes exactly y[lo:hi], never x, and what it writes to a row
// does not depend on the window the row arrived in. This file is the one
// place that can import sparse, smooth, fem and pool together, so every
// Kernel in the tree is a row of TestKernelContract: the products and the
// fused residuals (through residualKernel), with the block solves — an
// IndexedKernel — under checkIndexedContract, and element integration, the
// block-Jacobi factorization and the sparse products' symbolic and numeric
// passes — ItemKernels, writing storage of their own — under
// checkItemContract. What it cannot see — a kernel that writes
// its own receiver, harmless serially and a data race under Dispatch — is
// the race job's: both checks end by running the kernel through the pool
// so `go test -race` and the promdebug ownership table (check.Owners)
// observe it.

// contractSentinel pre-fills y: a quiet NaN whose payload no product
// computes, so an unwritten row, an accumulated-into row and a row
// written outside the window all stay recognisable bit for bit.
var contractSentinel = math.Float64frombits(0x7ff8_dead_beef_cafe)

// checkKernelContract verifies k on n rows, reading an x of nx entries,
// over a sweep of windows whose bounds are multiples of align
// (sparse.DispatchAlign of the kernel): for every start, the empty window,
// one unit, half of what is left and all of what is left. It returns the
// first violation, naming the index.
func checkKernelContract(k pool.Kernel, nx, n, align int) error {
	x := contractVector(nx, 1)
	x0 := slices.Clone(x)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sentinels := func() []float64 {
		y := make([]float64, n)
		for i := range y {
			y[i] = contractSentinel
		}
		return y
	}
	xIntact := func(call string) error {
		for i := range x {
			if !same(x[i], x0[i]) {
				return fmt.Errorf("%s wrote x[%d]", call, i)
			}
		}
		return nil
	}

	// apply runs one window on a sentinel-filled y and checks the two
	// properties that need no reference: x and y outside [lo, hi) keep
	// their bits, and every row inside is overwritten.
	apply := func(lo, hi int) ([]float64, error) {
		y := sentinels()
		k.MulVecRange(x, y, lo, hi)
		if err := xIntact(fmt.Sprintf("MulVecRange(x, y, %d, %d)", lo, hi)); err != nil {
			return nil, err
		}
		for i := range y {
			if (i < lo || i >= hi) && !same(y[i], contractSentinel) {
				return nil, fmt.Errorf("MulVecRange(x, y, %d, %d) wrote y[%d] outside the window", lo, hi, i)
			}
		}
		for i := lo; i < hi; i++ {
			if same(y[i], contractSentinel) {
				return nil, fmt.Errorf("MulVecRange(x, y, %d, %d) left y[%d] unwritten", lo, hi, i)
			}
		}
		return y, nil
	}

	type window struct {
		lo, hi int
		y      []float64
	}
	var windows []window
	units := n / align
	for lo := 0; lo <= units; lo++ {
		for _, hi := range []int{lo, lo + 1, (lo + units + 1) / 2, units} {
			if hi > units {
				continue
			}
			y, err := apply(lo*align, hi*align)
			if err != nil {
				return err
			}
			windows = append(windows, window{lo * align, hi * align, y})
		}
	}

	// One full-range call is the reference (not MulVec: a storage may sum
	// its scatter product in another order than its row product).
	ref, err := apply(0, n)
	if err != nil {
		return err
	}
	for _, w := range windows {
		for i := w.lo; i < w.hi; i++ {
			if !same(w.y[i], ref[i]) {
				return fmt.Errorf("MulVecRange(x, y, %d, %d) gives y[%d] = %v, the full range gives %v", w.lo, w.hi, i, w.y[i], ref[i])
			}
		}
	}

	for _, nw := range []int{1, 2, 3, 8} {
		y := sentinels()
		p := pool.New(nw)
		p.Dispatch(abreast{k, newRendezvous(nw, units)}, x, y, n, align)
		p.Close()
		if err := xIntact(fmt.Sprintf("Dispatch on %d workers", nw)); err != nil {
			return err
		}
		for i := range y {
			if !same(y[i], ref[i]) {
				return fmt.Errorf("Dispatch on %d workers gives y[%d] = %v, one call gives %v", nw, i, y[i], ref[i])
			}
		}
	}
	return nil
}

// contractVector returns n seeded normal deviates.
func contractVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// rendezvous holds the participants of one dispatch inside the kernel at
// once. A dispatch of two units or more runs on min(nw, units)
// participants and cuts at least that many chunks, so each participant
// draws a first chunk while the others wait in theirs: the first
// min(nw, units) calls meet here, later ones pass. That is what lets the
// race detector see two chunks write one receiver field, and check.Owners
// see two live claims that overlap, whatever the scheduler would have done
// with rows this few.
type rendezvous struct {
	wg   sync.WaitGroup
	left atomic.Int32
}

func newRendezvous(nw, units int) *rendezvous {
	r := &rendezvous{}
	n := max(1, min(nw, units))
	r.wg.Add(n)
	r.left.Store(int32(n))
	return r
}

func (r *rendezvous) arrive() {
	if r.left.Add(-1) >= 0 {
		r.wg.Done()
		r.wg.Wait()
	}
}

// abreast is a Kernel whose calls meet at a rendezvous before they run.
type abreast struct {
	k pool.Kernel
	r *rendezvous
}

func (a abreast) MulVecRange(x, y []float64, lo, hi int) {
	a.r.arrive()
	a.k.MulVecRange(x, y, lo, hi)
}

// abreastItems is abreast for an IndexedKernel.
type abreastItems struct {
	pool.IndexedKernel
	r *rendezvous
}

func (a abreastItems) ApplyOne(x, y []float64, item int) {
	a.r.arrive()
	a.IndexedKernel.ApplyOne(x, y, item)
}

// residualKernel presents a fused residual as the Kernel it must behave
// as: r[lo:hi] written, b and x read.
type residualKernel struct {
	rk pool.ResidualKernel
	b  []float64
}

func (k residualKernel) MulVecRange(x, r []float64, lo, hi int) {
	k.rk.ResidualRange(k.b, x, r, lo, hi)
}

// checkIndexedContract verifies an item kernel over m items on vectors of
// n entries: the write sets are pairwise disjoint, ApplyOne writes y
// nowhere outside its item's set and x nowhere, and the items applied in
// descending order, and through DispatchIndexed at several widths, leave
// the bits the ascending loop leaves.
func checkIndexedContract(k pool.IndexedKernel, n, m int) error {
	x, y0 := contractVector(n, 1), contractVector(n, 2)
	x0 := slices.Clone(x)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	owner := make([]int, n)
	for item := 0; item < m; item++ {
		for _, i := range k.WriteSet(item) {
			if owner[i] != 0 {
				return fmt.Errorf("items %d and %d both write y[%d]", owner[i]-1, item, i)
			}
			owner[i] = item + 1
		}
	}
	ref := slices.Clone(y0)
	for item := 0; item < m; item++ {
		before := slices.Clone(ref)
		k.ApplyOne(x, ref, item)
		for i := range ref {
			if owner[i] != item+1 && !same(ref[i], before[i]) {
				return fmt.Errorf("ApplyOne(x, y, %d) wrote y[%d] outside its write set", item, i)
			}
			if !same(x[i], x0[i]) {
				return fmt.Errorf("ApplyOne(x, y, %d) wrote x[%d]", item, i)
			}
		}
	}
	agree := func(how string, y []float64) error {
		for i := range y {
			if !same(y[i], ref[i]) {
				return fmt.Errorf("%s gives y[%d] = %v, the ascending loop gives %v", how, i, y[i], ref[i])
			}
		}
		return nil
	}
	y := slices.Clone(y0)
	for item := m - 1; item >= 0; item-- {
		k.ApplyOne(x, y, item)
	}
	if err := agree("the descending loop", y); err != nil {
		return err
	}
	for _, nw := range []int{1, 2, 3, 8} {
		y := slices.Clone(y0)
		p := pool.New(nw)
		p.DispatchIndexed(abreastItems{k, newRendezvous(nw, m)}, x, y, m)
		p.Close()
		if err := agree(fmt.Sprintf("DispatchIndexed on %d workers", nw), y); err != nil {
			return err
		}
	}
	// In place, as the smoother's sweep runs it: x and y one vector.
	y = slices.Clone(x)
	want := slices.Clone(y0)
	for item := 0; item < m; item++ {
		k.ApplyOne(x, want, item)
	}
	p := pool.New(3)
	p.DispatchIndexed(k, y, y, m)
	p.Close()
	for i := range y {
		if owner[i] != 0 && !same(y[i], want[i]) {
			return fmt.Errorf("DispatchIndexed in place gives y[%d] = %v, out of place gives %v", i, y[i], want[i])
		}
	}
	return nil
}

// abreastItemKernel is abreast for an ItemKernel.
type abreastItemKernel struct {
	k pool.ItemKernel
	r *rendezvous
}

func (a abreastItemKernel) Items(w, lo, hi int) {
	a.r.arrive()
	a.k.Items(w, lo, hi)
}

// itemRun is an item kernel with nothing run yet and read, which returns
// what it has written so far as floats in one fixed layout,
// contractSentinel where nothing is.
type itemRun struct {
	k    pool.ItemKernel
	read func() []float64
}

// checkItemContract verifies an item kernel over n items, fresh giving a
// new one with nothing written. The full range must write something.
// Running each item alone finds the entries
// it owns: no two items may write one entry, and the one full-range call
// may write no other. Then every window of items — run alone on a lane, or
// on a lane after another window whose scratch it left behind — must write
// exactly its items' entries, with the bits the full-range call gives, and
// so must DispatchItems at several widths.
func checkItemContract(fresh func() itemRun, n int) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	full := fresh()
	full.k.Items(0, 0, n)
	ref := full.read()
	if !slices.ContainsFunc(ref, func(v float64) bool { return !same(v, contractSentinel) }) {
		return fmt.Errorf("the full range of %d items writes nothing", n)
	}
	owner := make([]int, len(ref))
	for i := 0; i < n; i++ {
		r := fresh()
		r.k.Items(i%pool.Lanes, i, i+1)
		for e, v := range r.read() {
			if same(v, contractSentinel) {
				continue
			}
			if owner[e] != 0 {
				return fmt.Errorf("items %d and %d both write entry %d", owner[e]-1, i, e)
			}
			owner[e] = i + 1
		}
	}
	for e, v := range ref {
		if !same(v, contractSentinel) && owner[e] == 0 {
			return fmt.Errorf("the full range writes entry %d, which no item alone writes", e)
		}
	}
	check := func(how string, got []float64, lo, hi int) error {
		for e, v := range got {
			if owner[e] > lo && owner[e] <= hi {
				if !same(v, ref[e]) {
					return fmt.Errorf("%s gives entry %d = %v, the full range gives %v", how, e, v, ref[e])
				}
			} else if !same(v, contractSentinel) {
				return fmt.Errorf("%s wrote entry %d, which is item %d's", how, e, owner[e]-1)
			}
		}
		return nil
	}
	for lo := 0; lo <= n; lo++ {
		for _, hi := range []int{lo, lo + 1, (lo + n + 1) / 2, n} {
			if hi > n {
				continue
			}
			r := fresh()
			w := lo % pool.Lanes
			r.k.Items(w, lo, hi)
			if err := check(fmt.Sprintf("Items(%d, %d, %d)", w, lo, hi), r.read(), lo, hi); err != nil {
				return err
			}
			r = fresh()
			r.k.Items(1, 0, lo)
			r.k.Items(1, lo, hi)
			if err := check(fmt.Sprintf("Items(1, 0, %d) then Items(1, %d, %d)", lo, lo, hi), r.read(), 0, hi); err != nil {
				return err
			}
		}
	}
	for _, nw := range []int{1, 2, 3, 8} {
		r := fresh()
		p := pool.New(nw)
		p.DispatchItems(abreastItemKernel{r.k, newRendezvous(nw, n)}, n, 1)
		p.Close()
		if err := check(fmt.Sprintf("DispatchItems on %d workers", nw), r.read(), 0, n); err != nil {
			return err
		}
	}
	return nil
}

// sentinelFilled returns v filled with contractSentinel.
func sentinelFilled(v []float64) []float64 {
	for i := range v {
		v[i] = contractSentinel
	}
	return v
}

// strainRecorder is linear elasticity whose next state is the strain it
// was updated with, so every state a commit writes shows.
type strainRecorder struct{ material.LinearElastic }

// Update implements material.Model.
func (m strainRecorder) Update(s material.State, eps material.Voigt) (material.Voigt, material.Tangent, material.State) {
	sig, d, _ := m.LinearElastic.Update(s, eps)
	return sig, d, material.State{EpsP: eps}
}

// commitRun is the material commit at u over m's first chunk, on a new
// problem whose states hold contractSentinel; it reads every state's
// plastic strain.
func commitRun(m *mesh.Mesh, u []float64) itemRun {
	p := fem.NewProblem(m, []material.Model{strainRecorder{material.LinearElastic{E: 1, Nu: 0.3}}}, true)
	for _, states := range p.States {
		for g := range states {
			for c := range states[g].EpsP {
				states[g].EpsP[c] = contractSentinel
			}
		}
	}
	k, _ := p.CommitKernel(u)
	return itemRun{k, func() []float64 {
		var out []float64
		for _, states := range p.States {
			for _, st := range states {
				out = append(out, st.EpsP[:]...)
			}
		}
		return out
	}}
}

// restrictRun is the restriction kernel of the unit cube m onto the
// vertices whose coordinates are all even multiples of m's spacing short
// of 1 — a coarse cube inside m, so that the fine vertices beyond it are
// lost and take the fallback —
// read as ten slots per fine vertex: the entry count, the lost flag, the
// coarse vertices, the weights.
func restrictRun(t *testing.T, m *mesh.Mesh) itemRun {
	n := int(math.Round(math.Cbrt(float64(m.NumVerts())))) - 1
	even := func(x float64) bool { i := int(math.Round(float64(n) * x)); return i%2 == 0 && i < n }
	mis := m.VertsWhere(func(p geom.Vec3) bool { return even(p.X) && even(p.Y) && even(p.Z) })
	k, err := core.RestrictionKernel(m, mis)
	if err != nil {
		t.Fatal(err)
	}
	return itemRun{k, func() []float64 {
		out := sentinelFilled(make([]float64, 10*m.NumVerts()))
		for v := 0; v < m.NumVerts(); v++ {
			coarse, w, lost, ok := k.Row(v)
			if !ok {
				continue
			}
			slot := out[10*v:]
			slot[0] = float64(len(coarse))
			if lost {
				slot[1] = 1
			}
			for i, j := range coarse {
				slot[2+i], slot[6+i] = float64(j), w[i]
			}
		}
		return out
	}}
}

// fillRun is a numeric pass writing val, which it returns sentinel-filled.
func fillRun(k pool.ItemKernel, val []float64) itemRun {
	sentinelFilled(val)
	return itemRun{k, func() []float64 { return slices.Clone(val) }}
}

// symbolicRun reads a symbolic pass's rows into one slot of ncols+1
// entries each: the count, then the columns.
func symbolicRun(k *sparse.SymbolicKernel, n, ncols int) itemRun {
	return itemRun{k, func() []float64 {
		out := sentinelFilled(make([]float64, n*(ncols+1)))
		for i := 0; i < n; i++ {
			cols, ok := k.Row(i)
			if !ok {
				continue
			}
			slot := out[i*(ncols+1):]
			slot[0] = float64(len(cols))
			for t, c := range cols {
				slot[1+t] = float64(c)
			}
		}
		return out
	}}
}

// drainRun is a new drain of a chunk, read as its value and force arrays,
// which start at zero: an entry it leaves at +0 reads as unwritten.
func drainRun(fresh func() (pool.ItemKernel, []float64, []float64)) itemRun {
	k, val, fint := fresh()
	return itemRun{k, func() []float64 {
		out := append(slices.Clone(val), fint...)
		for i, v := range out {
			if math.Float64bits(v) == 0 {
				out[i] = contractSentinel
			}
		}
		return out
	}}
}

// envelopeRun is the smoother plan's envelope pass over parts of g's units
// of b dofs, read block by block as its envelope offsets, contractSentinel
// until laid out, and its factorization work.
func envelopeRun(g *graph.Graph, b int, parts [][]int) itemRun {
	k, env, work := smooth.EnvelopeKernel(g, b, parts)
	return itemRun{k, func() []float64 {
		var out []float64
		for bi, units := range parts {
			n := b * len(units)
			slot := sentinelFilled(make([]float64, n+2))
			if env[bi] != nil {
				for r, o := range env[bi] {
					slot[r] = float64(o)
				}
				slot[n+1] = float64(work[bi])
			}
			out = append(out, slot...)
		}
		return out
	}}
}

// intsRun is a pass writing the index arrays idx, which it fills with -1
// and reads as floats, -1 as unwritten.
func intsRun(k pool.ItemKernel, idx ...[]int) itemRun {
	for _, a := range idx {
		for i := range a {
			a[i] = -1
		}
	}
	return itemRun{k, func() []float64 {
		var out []float64
		for _, a := range idx {
			for _, v := range a {
				if v == -1 {
					out = append(out, contractSentinel)
				} else {
					out = append(out, float64(v))
				}
			}
		}
		return out
	}}
}

// contractConversions returns the item-kernel rows of the storage
// conversions: the expansion of b to scalar rows (pattern and values),
// the two Selects a solve makes — the reduction to free dofs and the
// pinned pattern of a level with pins, here with pin 1.5 — of a and of b
// in their count, pattern and values passes, and the re-blocking of a
// (count and pattern passes, then values).
func contractConversions(b *sparse.BSR, a *sparse.CSR) []itemCase {
	e := b.ToCSR()
	cases := []itemCase{
		{"BSR→CSR pattern", func() itemRun {
			out := &sparse.CSR{RowPtr: make([]int, len(e.RowPtr)), ColIdx: make([]int, len(e.ColIdx))}
			return intsRun(b.ScalarPatternKernel(out), out.RowPtr[1:], out.ColIdx)
		}, b.NBRows},
		{"BSR→CSR values", func() itemRun {
			out := &sparse.CSR{RowPtr: e.RowPtr, ColIdx: e.ColIdx, Val: make([]float64, len(e.Val))}
			return fillRun(b.FillFromBSRKernel(out), out.Val)
		}, b.NBRows},
	}
	// The reduction keeps the columns not ≡ 2 mod 7 and their rows. It
	// reads the blocks of b, the assembled tangent's storage, and a as
	// CSR.Select sees it: a matrix of 1×1 blocks over its arrays.
	full2Red, red2Full := make([]int, a.NCols), []int(nil)
	for j := range full2Red {
		full2Red[j] = -1
		if j%7 != 2 {
			full2Red[j] = len(red2Full)
			red2Full = append(red2Full, j)
		}
	}
	scalar := &sparse.BSR{NBRows: a.NRows, NBCols: a.NCols, B: 1, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
	for _, src := range []struct {
		name string
		m    *sparse.BSR
	}{{"", scalar}, {" BSR3", b}} {
		m, name := src.m, "Select"+src.name
		t := m.Select(red2Full, full2Red, len(red2Full))
		n := len(red2Full)
		cases = append(cases, []itemCase{
			{name + " count", func() itemRun {
				out := &sparse.CSR{RowPtr: make([]int, n+1)}
				k, _, _ := m.SelectKernels(out, red2Full, full2Red)
				return intsRun(k, out.RowPtr[1:])
			}, n},
			{name + " pattern", func() itemRun {
				out := &sparse.CSR{RowPtr: t.RowPtr, ColIdx: make([]int, len(t.ColIdx))}
				_, k, _ := m.SelectKernels(out, red2Full, full2Red)
				return intsRun(k, out.ColIdx)
			}, n},
			{name + " values", func() itemRun {
				out := &sparse.CSR{RowPtr: t.RowPtr, ColIdx: t.ColIdx, Val: make([]float64, len(t.Val))}
				_, _, k := m.SelectKernels(out, red2Full, full2Red)
				return fillRun(k, out.Val)
			}, n},
		}...)
	}
	tb, err := sparse.BlockPattern(a, 3)
	if err != nil {
		panic(err)
	}
	return append(cases, []itemCase{
		{"BlockPattern count", func() itemRun {
			out := &sparse.BSR{NBRows: tb.NBRows, NBCols: tb.NBCols, B: 3, RowPtr: make([]int, tb.NBRows+1)}
			k, _ := sparse.BlockPatternKernels(a, out)
			return intsRun(k, out.RowPtr[1:])
		}, tb.NBRows},
		{"BlockPattern pattern", func() itemRun {
			out := &sparse.BSR{NBRows: tb.NBRows, NBCols: tb.NBCols, B: 3, RowPtr: tb.RowPtr, ColIdx: make([]int, len(tb.ColIdx))}
			_, k := sparse.BlockPatternKernels(a, out)
			return intsRun(k, out.ColIdx)
		}, tb.NBRows},
		{"FillFromCSR", func() itemRun {
			val := make([]float64, tb.NNZ())
			return fillRun(tb.FillFromCSRKernel(a, val), val)
		}, tb.NBRows},
	}...)
}

// itemCase is one row of TestKernelContract's item kernels.
type itemCase struct {
	name  string
	fresh func() itemRun
	n     int
}

// contractGalerkin returns the item-kernel rows of the Galerkin plan of a
// under r, laid out in 3x3 blocks as a hierarchy lays its levels out:
// both products' symbolic and numeric passes. The plan must write the
// coarse operator in blocks.
func contractGalerkin(t *testing.T, name string, r *sparse.CSR, a sparse.Operator) []itemCase {
	g := sparse.PlanGalerkin(r, r.Transpose(), a, 3)
	if _, ok := g.Fill(g.RA(a)).(*sparse.BSR); !ok {
		t.Fatalf("%s: the coarse operator is not written in blocks", name)
	}
	ra, rar := g.Products()
	return []itemCase{
		{name + " R·A symbolic", func() itemRun { return symbolicRun(ra.SymbolicKernel(), ra.NRows, ra.NCols) }, ra.NRows},
		{name + " R·A·Rᵀ symbolic", func() itemRun { return symbolicRun(rar.SymbolicKernel(), rar.NRows, rar.NCols) }, rar.NRows},
		{name + " R·A fill", func() itemRun { k, v, _, _ := g.FillKernels(a); return fillRun(k, v) }, ra.NRows},
		{name + " R·A·Rᵀ fill", func() itemRun { _, _, k, v := g.FillKernels(a); return fillRun(k, v) }, rar.NRows},
	}
}

// contractBSR builds a random nb x nb block matrix of block size b with
// three blocks per block row, the diagonal among them.
func contractBSR(nb, b int) *sparse.BSR {
	rng := rand.New(rand.NewSource(int64(b)))
	bb := sparse.NewBlockBuilder(nb, nb, b)
	blk := make([]float64, b*b)
	for ib := 0; ib < nb; ib++ {
		for _, jb := range []int{ib, rng.Intn(nb), rng.Intn(nb)} {
			for k := range blk {
				blk[k] = rng.NormFloat64()
			}
			bb.AddBlock(ib, jb, blk)
		}
	}
	return bb.Build()
}

// reducedCube assembles the stiffness of an n x n x n hex cube clamped on
// z = 0 and reduces it to the free dofs: a small SPD elasticity operator.
func reducedCube(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	c := fem.NewConstraints()
	for _, v := range m.VertsWhere(func(p geom.Vec3) bool { return p.Z == 0 }) {
		c.FixVert(v, 0, 0, 0)
	}
	k, _, err := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false).AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	kred, _ := c.Reduce(k, c.NewDofMap(m.NumDOF()))
	return kred
}

// contractSmoother builds the paper's block Jacobi on a (six blocks per
// thousand unknowns, at least two).
func contractSmoother(t *testing.T, a *sparse.CSR) *smooth.DomainBlockJacobi {
	t.Helper()
	nb := max(2, smooth.DefaultBlockCount(a.NRows))
	g := &graph.Graph{N: a.NRows, Ptr: a.RowPtr, Adj: a.ColIdx}
	s, err := smooth.PlanBlocks(g, 1, graph.PartMembers(graph.GreedyPartition(g, nb), nb)).Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKernelContract runs every pool.Kernel in the tree through
// checkKernelContract, the block solves through checkIndexedContract and
// every pool.ItemKernel through checkItemContract. It is not skipped under -short: the full-tree race job runs -short and
// is the half of this check that sees receiver writes.
func TestKernelContract(t *testing.T) {
	bsr3, bsr2 := contractBSR(23, 3), contractBSR(17, 2)
	csr := bsr3.ToCSR()

	// Four groups of hex8 elements, integrated at a displacement per dof.
	hex := mesh.StructuredHex(4, 4, 4, 1, 1, 1, nil)
	hexProblem := fem.NewProblem(hex, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, true)
	u := contractVector(hex.NumDOF(), 1)

	// The smoother of a small elasticity operator: 54 dofs in two blocks.
	view := reducedCube(t, 2)
	bj := contractSmoother(t, view)

	for _, c := range []struct {
		name         string
		k            pool.Kernel
		nx, n, align int
	}{
		{"CSR", csr, csr.NCols, csr.NRows, 1},
		{"BSR3", bsr3, bsr3.Cols(), bsr3.Rows(), 3},
		{"BSR2", bsr2, bsr2.Cols(), bsr2.Rows(), 2},
		{"CSR residual", residualKernel{csr, contractVector(csr.NRows, 3)}, csr.NCols, csr.NRows, 1},
		{"BSR3 residual", residualKernel{bsr3, contractVector(bsr3.Rows(), 3)}, bsr3.Cols(), bsr3.Rows(), 3},
		{"BSR2 residual", residualKernel{bsr2, contractVector(bsr2.Rows(), 3)}, bsr2.Cols(), bsr2.Rows(), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := checkKernelContract(c.k, c.nx, c.n, c.align); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("block solve", func(t *testing.T) {
		if err := checkIndexedContract(bj.SolveKernel(), view.NRows, len(bj.Blocks())); err != nil {
			t.Fatal(err)
		}
	})

	// Element integration: item s fills slot s of the tangent and force
	// buffers. The material commit: item s stores element s's states. The
	// block factorization: item bi gathers and factors block bi into its
	// stretch of the factor storage. The restriction: item v locates fine
	// vertex v and writes its row slots.
	_, _, _, nElems := hexProblem.IntegrationKernel(u)
	items := []itemCase{
		{"element integration", func() itemRun {
			k, kes, fes, _ := hexProblem.IntegrationKernel(u)
			sentinelFilled(kes)
			sentinelFilled(fes)
			return itemRun{k, func() []float64 { return append(slices.Clone(kes), fes...) }}
		}, nElems},
		{"material commit", func() itemRun { return commitRun(hex, u) }, nElems},
		{"block factor", func() itemRun { return fillRun(bj.FactorKernel(view)) }, len(bj.Blocks())},
		{"restriction", func() itemRun { return restrictRun(t, hex) }, hex.NumVerts()},
	}

	// The drain: item s adds the chunk's tangents and forces at its s-th
	// vertex into that vertex's block row and force entries.
	drain, nDrain, err := hexProblem.DrainKernels(u)
	if err != nil {
		t.Fatal(err)
	}
	items = append(items, itemCase{"assembly drain", func() itemRun { return drainRun(drain) }, nDrain})
	items = append(items, contractConversions(bsr3, contractRagged(csr))...)

	// The smoother's plan on the same operator's pattern, cut in six: the
	// reverse Cuthill-McKee order of each part (item = part), and each
	// block's envelope (item = block); then the envelopes of six parts of
	// bsr3's node graph, three dofs a unit.
	vg := &graph.Graph{N: view.NRows, Ptr: view.RowPtr, Adj: view.ColIdx}
	vpart := graph.GreedyPartition(vg, 6)
	ng := &graph.Graph{N: bsr3.NBRows, Ptr: bsr3.RowPtr, Adj: bsr3.ColIdx}
	nparts := graph.PartMembers(graph.GreedyPartition(ng, 6), 6)
	items = append(items, []itemCase{
		{"block order", func() itemRun {
			o := graph.NewPartOrder(vg, vpart, 6)
			return intsRun(o, o.Order())
		}, 6},
		{"block envelope", func() itemRun { return envelopeRun(vg, 1, graph.PartMembers(vpart, 6)) }, 6},
		{"block envelope BSR3", func() itemRun { return envelopeRun(ng, 3, nparts) }, 6},
	}...)

	// The sparse products' symbolic and numeric passes: a plain product,
	// and the Galerkin products on every path a hierarchy takes — blocked
	// under a node-conforming restriction, and formed in scalar rows and
	// written straight into the block layout: a CSR operator, and a BSR
	// operator expanded under a restriction that is not node-conforming.
	// The pinned cases' restrictions lose two rows, so two coarse dofs have
	// no support and the layout holds diagonal slots no term reaches.
	mul := sparse.PlanProduct(csr, csr)
	items = append(items, []itemCase{
		{"Mul symbolic", func() itemRun { return symbolicRun(mul.SymbolicKernel(), mul.NRows, mul.NCols) }, mul.NRows},
		{"Mul fill", func() itemRun {
			c := make([]float64, mul.ValLen())
			return fillRun(mul.FillKernel(csr.Val, csr.Val, c), c)
		}, mul.NRows},
	}...)
	r := contractRestriction(bsr3.NBRows, 8, 3)
	notConforming := r.Select(identity(r.NRows), identity(r.NCols), r.NCols)
	notConforming.Val[notConforming.RowPtr[1]] *= 2
	items = append(items, contractGalerkin(t, "Galerkin blocked", r, bsr3)...)
	items = append(items, contractGalerkin(t, "Galerkin pinned CSR", contractDropRows(r, 2, 5), contractRagged(csr))...)
	items = append(items, contractGalerkin(t, "Galerkin expanded", notConforming, bsr3)...)
	items = append(items, contractGalerkin(t, "Galerkin expanded pinned", contractDropRows(notConforming, 2, 5), bsr3)...)
	for _, c := range items {
		if want := r.NRows / 3; strings.HasPrefix(c.name, "Galerkin blocked") != (c.n == want) {
			t.Fatalf("%s runs over %d rows: the blocked path's products have %d node rows, the others more", c.name, c.n, want)
		}
		t.Run(c.name, func(t *testing.T) {
			if err := checkItemContract(c.fresh, c.n); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// contractRestriction returns a node-conforming restriction from nf fine
// to nc coarse nodes of b dofs: coarse node c takes fine nodes c, c+nc, …
// with weight 1 and their successors with weight 1/2.
func contractRestriction(nf, nc, b int) *sparse.CSR {
	rb := sparse.NewBuilder(nc, nf)
	for j := 0; j < nf; j++ {
		rb.Add(j%nc, j, 1)
		rb.Add(j%nc, (j+1)%nf, 0.5)
	}
	return sparse.ExpandBlocks(rb.Build(), b)
}

// contractDropRows returns r with the given rows stored empty.
func contractDropRows(r *sparse.CSR, rows ...int) *sparse.CSR {
	b := sparse.NewBuilder(r.NRows, r.NCols)
	for i := 0; i < r.NRows; i++ {
		if slices.Contains(rows, i) {
			continue
		}
		cols, vals := r.Row(i)
		for k, j := range cols {
			b.Add(i, j, vals[k])
		}
	}
	return b.Build()
}

// contractRagged returns a with a quarter of its off-diagonal entries
// dropped: a scalar pattern its 3x3 blocks hold only in part.
func contractRagged(a *sparse.CSR) *sparse.CSR {
	b := sparse.NewBuilder(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if i == j || (7*i+j)%4 != 0 {
				b.Add(i, j, vals[k])
			}
		}
	}
	return b.Build()
}

// identity returns 0, 1, …, n-1.
func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

// TestFusedResidualIsProductThenSubtract pins the fused kernels to the two
// passes they replaced: r = b - A·x with A·x rounded to a float64 first.
func TestFusedResidualIsProductThenSubtract(t *testing.T) {
	bsr3, bsr2 := contractBSR(23, 3), contractBSR(17, 2)
	for name, a := range map[string]sparse.Operator{"CSR": bsr3.ToCSR(), "BSR3": bsr3, "BSR2": bsr2} {
		x, b := contractVector(a.Cols(), 1), contractVector(a.Rows(), 3)
		ax, r := make([]float64, a.Rows()), make([]float64, a.Rows())
		a.MulVec(x, ax)
		a.Residual(b, x, r)
		for i := range r {
			if math.Float64bits(r[i]) != math.Float64bits(b[i]-ax[i]) {
				t.Fatalf("%s: r[%d] = %v, b - A·x = %v", name, i, r[i], b[i]-ax[i])
			}
		}
	}
}

// Three seeded faults, one per way a kernel can break the contract where
// a serial run sees it. The fourth way, a kernel that counts its calls in
// a receiver field, breaks nothing a serial run can see: it is a data race
// between the chunks of the Dispatch phase, and the race job's to report.

type offByOneKernel struct{}

func (offByOneKernel) MulVecRange(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i+1] = x[i]
	}
}

type writesXKernel struct{}

func (writesXKernel) MulVecRange(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		x[i] = y[i]
	}
}

type wholeVectorKernel struct{}

func (wholeVectorKernel) MulVecRange(x, y []float64, lo, hi int) {
	for i := range y {
		y[i] = 0
	}
}

// TestKernelContractSeededFaults checks that the contract check rejects
// each seeded fault at the first window that shows it, by index.
func TestKernelContractSeededFaults(t *testing.T) {
	for _, c := range []struct {
		name string
		k    pool.Kernel
		want string
	}{
		{"OffByOne", offByOneKernel{}, "wrote y[1] outside the window"},
		{"WritesX", writesXKernel{}, "wrote x[0]"},
		{"WholeVector", wholeVectorKernel{}, "wrote y[0] outside the window"},
	} {
		err := checkKernelContract(c.k, 12, 12, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
