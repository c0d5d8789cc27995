//go:build !promdebug

package check

// Enabled reports whether invariant checking is compiled in. It is a
// constant so that "if check.Enabled { ... }" blocks vanish entirely from
// release builds.
const Enabled = false

// Assert is a no-op in release builds.
func Assert(cond bool, format string, args ...interface{}) {}

// CSRWellFormed is a no-op in release builds.
func CSRWellFormed(nRows, nCols int, rowPtr, colIdx []int, nVal int, ctx string) {}

// SymmetricPattern is a no-op in release builds.
func SymmetricPattern(n int, rowPtr, colIdx []int, ctx string) {}

// SymmetricValues is a no-op in release builds.
func SymmetricValues(n, b int, rowPtr, colIdx []int, val []float64, ctx string) {}

// SortedUnique is a no-op in release builds.
func SortedUnique(idx []int, n int, ctx string) {}

// StrictlyDecreasing is a no-op in release builds.
func StrictlyDecreasing(dims []int, ctx string) {}

// IndependentSet is a no-op in release builds.
func IndependentSet(mis []int, n int, neighbors func(int) []int, immortal []bool, ctx string) {}

// Partition is a no-op in release builds.
func Partition(owner []int, nRanks int, ctx string) {}
