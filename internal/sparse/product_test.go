package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mulGustavson is the one-pass row merge the planned product replaced:
// pattern and values in one sweep, each row's columns sorted at its end.
// Every product must give its bits.
func mulGustavson(a, b *CSR) *CSR {
	rowPtr := make([]int, a.NRows+1)
	var colIdx []int
	var val []float64
	acc := make([]float64, b.NCols)
	mark := make([]int, b.NCols)
	for i := range mark {
		mark[i] = -1
	}
	var pattern []int
	for i := 0; i < a.NRows; i++ {
		pattern = pattern[:0]
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			j, av := a.ColIdx[ka], a.Val[ka]
			for kb := b.RowPtr[j]; kb < b.RowPtr[j+1]; kb++ {
				c := b.ColIdx[kb]
				if mark[c] != i {
					mark[c], acc[c] = i, 0
					pattern = append(pattern, c)
				}
				acc[c] += av * b.Val[kb]
			}
		}
		sort.Ints(pattern)
		for _, c := range pattern {
			colIdx, val = append(colIdx, c), append(val, acc[c])
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{NRows: a.NRows, NCols: b.NCols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// sameCSR reports whether a and b are equal in pattern and value bits.
func sameCSR(a, b *CSR) bool {
	return a.NRows == b.NRows && a.NCols == b.NCols && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) &&
		slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestProductIsOnePassGustavson: Mul and Galerkin give the bits of the
// one-pass product, on shapes whose rows are long enough for the radix
// sort (a dense-ish block of columns) and short enough for the insertion
// sort, with duplicate rows in R·A (the intermediate's shared rows).
func TestProductIsOnePassGustavson(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		n := 40 + 70*trial
		a := randCSR(rng, n, n, 0.02+0.05*float64(trial%3))
		b := randCSR(rng, n, n+17, 0.03)
		if got, want := a.Mul(b), mulGustavson(a, b); !sameCSR(got, want) {
			t.Fatalf("trial %d: Mul differs from the one-pass product", trial)
		}
		r := randCSR(rng, n/3, n, 0.1)
		// Two equal rows: the intermediate R·A stores their columns once.
		r = r.Select(append(identity(r.NRows), 0), identity(n), n)
		if got, want := Galerkin(r, a), mulGustavson(mulGustavson(r, a), r.Transpose()); !sameCSR(got, want) {
			t.Fatalf("trial %d: Galerkin differs from the one-pass triple product", trial)
		}
	}
}

// TestGalerkinBSRIsScalarProduct: the blocked triple product under a
// node-conforming restriction gives, entry for entry, the bits of the
// scalar one-pass product of the expanded matrices (a blocked entry adds
// the same terms in the same order).
func TestGalerkinBSRIsScalarProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const nf, nc, b = 30, 9, 3
	bb := NewBlockBuilder(nf, nf, b)
	blk := make([]float64, b*b)
	for e := 0; e < 120; e++ {
		for k := range blk {
			blk[k] = rng.Float64()*2 - 1
		}
		bb.AddBlock(rng.Intn(nf), rng.Intn(nf), blk)
	}
	a := bb.Build()
	r := ExpandBlocks(randCSR(rng, nc, nf, 0.3), b)
	got, ok := GalerkinBSR(r, a).(*BSR)
	if !ok {
		t.Fatal("GalerkinBSR left blocked storage under a conforming restriction")
	}
	want := mulGustavson(mulGustavson(r, a.ToCSR()), r.Transpose())
	g := got.ToCSR()
	for i := 0; i < want.NRows; i++ {
		cols, vals := want.Row(i)
		for k, j := range cols {
			if math.Float64bits(g.At(i, j)) != math.Float64bits(vals[k]) {
				t.Fatalf("entry (%d,%d): blocked %v, scalar %v", i, j, g.At(i, j), vals[k])
			}
		}
	}
}

// TestGalerkinLayoutIsScalarProduct: a scalar product planned for 3x3
// blocks is written straight into the block layout, every entry the bits
// of the one-pass product and every other stored entry zero, with a
// diagonal slot on every row — the empty rows of a restriction that lost
// a whole node and one more row included. Pin then zeroes the pinned rows
// and columns inside their blocks and sets their diagonals, and leaves
// every other entry the product's.
func TestGalerkinLayoutIsScalarProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const nf, nc = 60, 24
	a := randCSR(rng, nf, nf, 0.1)
	a = a.Mul(a.Transpose())
	r := emptyRows(randCSR(rng, nc, nf, 0.15), 3, 4, 5, 17)
	keep := identity(nc)
	keep[3], keep[4], keep[5], keep[17] = -1, -1, -1, -1
	want := mulGustavson(mulGustavson(r, a), r.Transpose())
	g := PlanGalerkin(r, r.Transpose(), a, 3)
	got, ok := g.Fill(g.RA(a)).(*BSR)
	if !ok {
		t.Fatal("the scalar product was not written into blocks")
	}
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("entry (%d,%d): %v in blocks, %v in the product", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	for ib := 0; ib < got.NBRows; ib++ {
		if !slices.Contains(got.ColIdx[got.RowPtr[ib]:got.RowPtr[ib+1]], ib) {
			t.Fatalf("block row %d stores no diagonal block", ib)
		}
	}
	Pin(got, keep, 7)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			pinned := want.At(i, j)
			switch {
			case keep[i] >= 0 && keep[j] >= 0:
			case i == j:
				pinned = 7
			default:
				pinned = 0
			}
			if math.Float64bits(got.At(i, j)) != math.Float64bits(pinned) {
				t.Fatalf("pinned entry (%d,%d): %v in place, want %v", i, j, got.At(i, j), pinned)
			}
		}
	}
}

// emptyRows returns r with the given rows storing nothing.
func emptyRows(r *CSR, rows ...int) *CSR {
	b := NewBuilder(r.NRows, r.NCols)
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

// TestSamePattern: patterns match on storage, dimensions, RowPtr and
// ColIdx, never on values.
func TestSamePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a := randCSR(rng, 30, 30, 0.2)
	b := &CSR{NRows: a.NRows, NCols: a.NCols, RowPtr: slices.Clone(a.RowPtr), ColIdx: slices.Clone(a.ColIdx), Val: make([]float64, len(a.Val))}
	if !SamePattern(a, b) || !SamePattern(a, PatternOf(a)) {
		t.Fatal("equal patterns in other arrays, or other values, do not match")
	}
	for k := a.RowPtr[3]; k < a.RowPtr[4]; k++ {
		if a.ColIdx[k] != 5 && (k == a.RowPtr[4]-1 || a.ColIdx[k+1] > 5) && (k == a.RowPtr[3] || a.ColIdx[k-1] < 5) {
			b.ColIdx[k] = 5
			break
		}
	}
	if slices.Equal(a.ColIdx, b.ColIdx) {
		t.Fatal("fixture: no column of row 3 could move to 5")
	}
	if SamePattern(a, b) {
		t.Error("a moved column matches")
	}
	c := &CSR{NRows: a.NRows, NCols: a.NCols + 1, RowPtr: a.RowPtr, ColIdx: a.ColIdx}
	if SamePattern(a, c) {
		t.Error("another column count matches")
	}
	blocked, err := FromCSR(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if SamePattern(a, blocked) || SamePattern(blocked, a) {
		t.Error("a CSR and a BSR pattern match")
	}
}

// TestExpands: a CSR matches a BSR pattern exactly when it stores every
// entry of every block and nothing else.
func TestExpands(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	bb := NewBlockBuilder(12, 12, 3)
	blk := make([]float64, 9)
	for e := 0; e < 40; e++ {
		bb.AddBlock(rng.Intn(12), rng.Intn(12), blk)
	}
	a := bb.Build()
	c := a.ToCSR()
	if !a.Expands(c) {
		t.Fatal("a BSR's own expansion does not match it")
	}
	moved := &CSR{NRows: c.NRows, NCols: c.NCols, RowPtr: c.RowPtr, ColIdx: slices.Clone(c.ColIdx)}
	moved.ColIdx[len(moved.ColIdx)-1]--
	short := &CSR{NRows: c.NRows, NCols: c.NCols, RowPtr: slices.Clone(c.RowPtr), ColIdx: c.ColIdx[:len(c.ColIdx)-1]}
	short.RowPtr[c.NRows]--
	wide := &CSR{NRows: c.NRows, NCols: c.NCols + 3, RowPtr: c.RowPtr, ColIdx: c.ColIdx}
	for name, x := range map[string]*CSR{"a moved column": moved, "a dropped entry": short, "more columns": wide} {
		if a.Expands(x) {
			t.Errorf("%s matches", name)
		}
	}
}

// identity returns 0, 1, …, n-1.
func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}
