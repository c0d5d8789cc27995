package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"prometheus/internal/pool"
)

// The storage conversions run as count and fill passes over rows on the
// shared worker set. Here they are as they were written before, one
// serial loop each over the whole matrix: the references the parallel
// passes must equal bit for bit at every core count.

// scalarPatternRef is ScalarPattern as one serial loop.
func scalarPatternRef(a *BSR) *CSR {
	b := a.B
	rowPtr := make([]int, a.Rows()+1)
	colIdx := make([]int, len(a.ColIdx)*b*b)
	n := 0
	for ib := 0; ib < a.NBRows; ib++ {
		blockCols := a.ColIdx[a.RowPtr[ib]:a.RowPtr[ib+1]]
		for d := 0; d < b; d++ {
			for _, jb := range blockCols {
				for c := 0; c < b; c++ {
					colIdx[n] = jb*b + c
					n++
				}
			}
			rowPtr[ib*b+d+1] = n
		}
	}
	return &CSR{NRows: a.Rows(), NCols: a.Cols(), RowPtr: rowPtr, ColIdx: colIdx}
}

// fillFromBSRRef is FillFromBSR's values as one serial loop.
func fillFromBSRRef(a *BSR) []float64 {
	b := a.B
	bb := b * b
	val := make([]float64, a.NNZ())
	n := 0
	for ib := 0; ib < a.NBRows; ib++ {
		p, q := a.RowPtr[ib], a.RowPtr[ib+1]
		for d := 0; d < b; d++ {
			for k := p; k < q; k++ {
				n += copy(val[n:], a.Val[k*bb+d*b:k*bb+d*b+b])
			}
		}
	}
	return val
}

// selectRef is Select as a serial count loop, a serial pattern loop and a
// serial values loop.
func selectRef(a *CSR, rows, colMap []int, nCols int, pin float64) *CSR {
	rowPtr := make([]int, len(rows)+1)
	for i, r := range rows {
		n := 1
		if r >= 0 {
			n = 0
			for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
				if colMap[j] >= 0 {
					n++
				}
			}
		}
		rowPtr[i+1] = rowPtr[i] + n
	}
	colIdx := make([]int, rowPtr[len(rows)])
	val := make([]float64, rowPtr[len(rows)])
	n := 0
	for i, r := range rows {
		if r < 0 {
			colIdx[n], val[n] = i, pin
			n++
			continue
		}
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if jn := colMap[a.ColIdx[k]]; jn >= 0 {
				colIdx[n], val[n] = jn, 0+a.Val[k]
				n++
			}
		}
	}
	return &CSR{NRows: len(rows), NCols: nCols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// fromCSRRef is BlockPattern and FillFromCSR as serial loops: a count
// pass and a collect-and-sort pass through one marker array, then one
// cursor per scalar row.
func fromCSRRef(a *CSR, b int) *BSR {
	nbr, nbc := a.NRows/b, a.NCols/b
	rowPtr := make([]int, nbr+1)
	mark := make([]int, nbc)
	for i := range mark {
		mark[i] = -1
	}
	for ib := 0; ib < nbr; ib++ {
		n := 0
		for _, j := range a.ColIdx[a.RowPtr[ib*b]:a.RowPtr[ib*b+b]] {
			if jb := j / b; mark[jb] != ib {
				mark[jb] = ib
				n++
			}
		}
		rowPtr[ib+1] = rowPtr[ib] + n
	}
	colIdx := make([]int, rowPtr[nbr])
	for i := range mark {
		mark[i] = -1
	}
	for ib := 0; ib < nbr; ib++ {
		n := rowPtr[ib]
		for _, j := range a.ColIdx[a.RowPtr[ib*b]:a.RowPtr[ib*b+b]] {
			if jb := j / b; mark[jb] != ib {
				mark[jb] = ib
				colIdx[n] = jb
				n++
			}
		}
		sort.Ints(colIdx[rowPtr[ib]:n])
	}
	bb := b * b
	val := make([]float64, len(colIdx)*bb)
	for i := 0; i < a.NRows; i++ {
		ib, d := i/b, i%b
		p := rowPtr[ib]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			for colIdx[p] != j/b {
				p++
			}
			val[p*bb+d*b+j%b] = a.Val[k]
		}
	}
	return &BSR{NBRows: nbr, NBCols: nbc, B: b, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// bandedBSR returns an nb×nb block matrix of block size 3 whose block row
// ib holds its diagonal block and up to six more within 40 block columns,
// with random values, a -0.0 and a +0.0 among them.
func bandedBSR(rng *rand.Rand, nb int) *BSR {
	a := &BSR{NBRows: nb, NBCols: nb, B: 3, RowPtr: make([]int, nb+1)}
	for ib := 0; ib < nb; ib++ {
		cols := []int{ib}
		for t := 0; t < 6; t++ {
			cols = append(cols, min(nb-1, max(0, ib+rng.Intn(81)-40)))
		}
		slices.Sort(cols)
		cols = slices.Compact(cols)
		a.ColIdx = append(a.ColIdx, cols...)
		a.RowPtr[ib+1] = len(a.ColIdx)
	}
	a.Val = make([]float64, 9*len(a.ColIdx))
	for k := range a.Val {
		a.Val[k] = rng.NormFloat64()
	}
	a.Val[5] = math.Copysign(0, -1)
	a.Val[6] = 0
	return a
}

// raggedOf returns a with a quarter of its off-diagonal entries dropped
// and one row emptied: a pattern its 3×3 blocks hold only in part.
func raggedOf(a *CSR) *CSR {
	out := &CSR{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]int, a.NRows+1)}
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; i != a.NRows/2 && (i == j || (7*i+j)%4 != 0) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, a.Val[k])
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// TestConversionsIndependentOfProcs checks every conversion against its
// serial reference by Float64bits at GOMAXPROCS 1, 2 and 4, on matrices
// above pool.Grain, so that two and four participants do take the passes
// apart: the expansion of a BSR (ToCSR), the reduction of its expansion to
// the free dofs of a constraint set that is not node-aligned, the pinned
// Select of a level with pins and pin 1.5, both from one pattern through
// FillSelect too, and the re-blocking (FromCSR) of the expansion and of a
// ragged pattern with an empty row.
func TestConversionsIndependentOfProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	b := bandedBSR(rng, 5000)
	e := b.ToCSR()
	if e.NNZ() < 4*pool.Grain {
		t.Fatalf("the expansion has %d entries, want well above pool.Grain", e.NNZ())
	}
	ragged := raggedOf(e)

	full2Red, red2Full := make([]int, e.NCols), []int(nil)
	for j := range full2Red {
		full2Red[j] = -1
		if j%7 != 2 && j%11 != 0 {
			full2Red[j] = len(red2Full)
			red2Full = append(red2Full, j)
		}
	}
	keep := make([]int, e.NRows)
	for i := range keep {
		keep[i] = i
		if i%97 == 3 {
			keep[i] = -1
		}
	}
	selects := []struct {
		name         string
		rows, colMap []int
		nCols        int
		pin          float64
	}{
		{"reduction", red2Full, full2Red, len(red2Full), 0},
		{"pinned", keep, keep, e.NCols, 1.5},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		at := func(what string) string { return fmt.Sprintf("GOMAXPROCS=%d: %s", procs, what) }

		want := scalarPatternRef(b)
		want.Val = fillFromBSRRef(b)
		if !sameCSR(b.ToCSR(), want) {
			t.Fatal(at("ToCSR differs from the serial expansion"))
		}
		for _, sc := range selects {
			want := selectRef(e, sc.rows, sc.colMap, sc.nCols, sc.pin)
			if !sameCSR(e.Select(sc.rows, sc.colMap, sc.nCols, sc.pin), want) {
				t.Fatal(at(sc.name + " Select differs from the serial reference"))
			}
			pat := e.SelectPattern(sc.rows, sc.colMap, sc.nCols)
			if !sameCSR(pat.FillSelect(e, sc.rows, sc.colMap, sc.pin), want) {
				t.Fatal(at(sc.name + " SelectPattern then FillSelect differs from the serial reference"))
			}
		}
		for _, a := range []*CSR{e, ragged} {
			want := fromCSRRef(a, 3)
			got, err := FromCSR(a, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) ||
				!slices.EqualFunc(got.Val, want.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatal(at(fmt.Sprintf("FromCSR of a %d-entry pattern differs from the serial reference", a.NNZ())))
			}
		}
	}
}
