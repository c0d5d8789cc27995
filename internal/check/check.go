//go:build promdebug

package check

import (
	"fmt"
	"math"
)

// Enabled reports whether invariant checking is compiled in. It is a
// constant so that "if check.Enabled { ... }" blocks vanish entirely from
// release builds.
const Enabled = true

// Assert panics with the formatted message when cond is false.
func Assert(cond bool, format string, args ...interface{}) {
	if !cond {
		panic("check: " + fmt.Sprintf(format, args...))
	}
}

// CSRWellFormed validates the structural invariants of a CSR matrix given
// its raw storage: RowPtr has length nRows+1, starts at 0, is monotone
// non-decreasing and ends at len(colIdx); column indices are strictly
// increasing within each row and in [0, nCols); and the value array
// matches the index array in length. ctx names the call site in the
// panic message.
func CSRWellFormed(nRows, nCols int, rowPtr, colIdx []int, nVal int, ctx string) {
	Assert(nRows >= 0 && nCols >= 0, "%s: negative dimensions %dx%d", ctx, nRows, nCols)
	Assert(len(rowPtr) == nRows+1, "%s: RowPtr length %d, want %d", ctx, len(rowPtr), nRows+1)
	Assert(rowPtr[0] == 0, "%s: RowPtr[0] = %d, want 0", ctx, rowPtr[0])
	Assert(rowPtr[nRows] == len(colIdx), "%s: RowPtr[last] = %d, want nnz %d", ctx, rowPtr[nRows], len(colIdx))
	Assert(nVal == len(colIdx), "%s: %d values for %d column indices", ctx, nVal, len(colIdx))
	for i := 0; i < nRows; i++ {
		Assert(rowPtr[i] <= rowPtr[i+1], "%s: RowPtr not monotone at row %d (%d > %d)", ctx, i, rowPtr[i], rowPtr[i+1])
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			Assert(j >= 0 && j < nCols, "%s: row %d column %d out of range [0,%d)", ctx, i, j, nCols)
			if k > rowPtr[i] {
				Assert(colIdx[k-1] < j, "%s: row %d columns not strictly increasing (%d then %d)", ctx, i, colIdx[k-1], j)
			}
		}
	}
}

// SymmetricPattern asserts that the pattern of an n×n CSR matrix is
// structurally symmetric: (j, i) is stored wherever (i, j) is. Rows are
// sorted, so scanning rows in ascending order meets the entries of each
// column j in ascending row order, and one cursor per row j checks them
// against row j's columns.
func SymmetricPattern(n int, rowPtr, colIdx []int, ctx string) {
	next := append([]int(nil), rowPtr[:n]...)
	for i := 0; i < n; i++ {
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if next[j] == rowPtr[j+1] || colIdx[next[j]] != i {
				Assert(false, "%s: entry (%d,%d) is stored and (%d,%d) is not", ctx, i, j, j, i)
			}
			next[j]++
		}
	}
	for j := 0; j < n; j++ {
		if next[j] != rowPtr[j+1] {
			Assert(false, "%s: entry (%d,%d) is stored and (%d,%d) is not", ctx, j, colIdx[next[j]], colIdx[next[j]], j)
		}
	}
}

// SymmetricValues asserts that an n×n block matrix of b×b row-major
// blocks (b = 1 for CSR) is symmetric bit for bit: its pattern is
// symmetric and every entry has its mirror's bits, signed zeros included.
// Each block row's cursor meets the blocks (j, i) in the order the rows i
// ascend, as in SymmetricPattern.
func SymmetricValues(n, b int, rowPtr, colIdx []int, val []float64, ctx string) {
	SymmetricPattern(n, rowPtr, colIdx, ctx)
	next := append([]int(nil), rowPtr[:n]...)
	bb := b * b
	for i := 0; i < n; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			m := next[j]
			next[j]++
			for r := 0; r < b; r++ {
				for c := 0; c < b; c++ {
					x, y := val[bb*k+b*r+c], val[bb*m+b*c+r]
					if math.Float64bits(x) != math.Float64bits(y) {
						Assert(false, "%s: entry (%d,%d) = %v and (%d,%d) = %v", ctx, b*i+r, b*j+c, x, b*j+c, b*i+r, y)
					}
				}
			}
		}
	}
}

// SortedUnique asserts that idx is strictly increasing with every entry in
// [0, n).
func SortedUnique(idx []int, n int, ctx string) {
	for k, v := range idx {
		Assert(v >= 0 && v < n, "%s: index %d out of range [0,%d)", ctx, v, n)
		if k > 0 {
			Assert(idx[k-1] < v, "%s: indices not strictly increasing (%d then %d)", ctx, idx[k-1], v)
		}
	}
}

// StrictlyDecreasing asserts that dims is a strictly decreasing sequence —
// the level-dimension monotonicity of a multigrid hierarchy (every coarse
// grid must be smaller than its parent).
func StrictlyDecreasing(dims []int, ctx string) {
	for i := 1; i < len(dims); i++ {
		Assert(dims[i] < dims[i-1], "%s: level %d has %d dofs, not below parent's %d", ctx, i, dims[i], dims[i-1])
	}
}

// IndependentSet asserts the MIS invariants on a selected vertex set:
// every vertex is in [0, n) and listed once, and no two selected mortal
// vertices are adjacent (immortal vertices are exempt from independence
// by the paper's corner rule). The set may be in any order — the serial
// MIS reports vertices in traversal order. neighbors(v) returns the
// adjacency of v.
func IndependentSet(mis []int, n int, neighbors func(int) []int, immortal []bool, ctx string) {
	in := make([]bool, n)
	for _, v := range mis {
		Assert(v >= 0 && v < n, "%s: vertex %d out of range [0,%d)", ctx, v, n)
		Assert(!in[v], "%s: vertex %d selected twice", ctx, v)
		in[v] = true
	}
	imm := func(v int) bool { return immortal != nil && immortal[v] }
	for _, v := range mis {
		if imm(v) {
			continue
		}
		for _, w := range neighbors(v) {
			Assert(!in[w] || imm(w), "%s: selected mortal vertices %d and %d are adjacent", ctx, v, w)
		}
	}
}

// Partition asserts that owner assigns every element to a rank in
// [0, nRanks).
func Partition(owner []int, nRanks int, ctx string) {
	for i, o := range owner {
		Assert(o >= 0 && o < nRanks, "%s: element %d owned by rank %d, want [0,%d)", ctx, i, o, nRanks)
	}
}
