package check

import (
	"math"
	"testing"
)

// mustPanic runs fn and reports whether it panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	fn()
	return false
}

func TestAssert(t *testing.T) {
	if mustPanic(func() { Assert(true, "fine") }) {
		t.Fatal("Assert(true) must never panic")
	}
	if got := mustPanic(func() { Assert(false, "boom %d", 7) }); got != Enabled {
		t.Fatalf("Assert(false) panicked=%v, want %v (Enabled=%v)", got, Enabled, Enabled)
	}
}

func TestCSRWellFormed(t *testing.T) {
	good := func() {
		CSRWellFormed(2, 3, []int{0, 2, 3}, []int{0, 2, 1}, 3, "test")
	}
	if mustPanic(good) {
		t.Fatal("well-formed CSR must pass")
	}
	bad := []struct {
		name string
		fn   func()
	}{
		{"rowptr length", func() { CSRWellFormed(2, 3, []int{0, 2}, []int{0, 2}, 2, "test") }},
		{"rowptr start", func() { CSRWellFormed(1, 3, []int{1, 2}, []int{0, 1}, 2, "test") }},
		{"rowptr end", func() { CSRWellFormed(1, 3, []int{0, 1}, []int{0, 1}, 2, "test") }},
		{"rowptr monotone", func() { CSRWellFormed(2, 3, []int{0, 2, 1}, []int{0}, 1, "test") }},
		{"col out of range", func() { CSRWellFormed(1, 2, []int{0, 1}, []int{5}, 1, "test") }},
		{"col unsorted", func() { CSRWellFormed(1, 3, []int{0, 2}, []int{2, 0}, 2, "test") }},
		{"col duplicate", func() { CSRWellFormed(1, 3, []int{0, 2}, []int{1, 1}, 2, "test") }},
		{"val length", func() { CSRWellFormed(1, 3, []int{0, 2}, []int{0, 1}, 3, "test") }},
	}
	for _, tc := range bad {
		if got := mustPanic(tc.fn); got != Enabled {
			t.Errorf("%s: panicked=%v, want %v", tc.name, got, Enabled)
		}
	}
}

// TestSymmetricValues: a symmetric CSR and a symmetric BSR of 2×2 blocks
// pass; one entry off by a bit, a -0 mirrored by a +0 (also in a
// diagonal block) or an entry with no mirror panics under promdebug.
func TestSymmetricValues(t *testing.T) {
	// [[1 2 0], [2 5 -0], [0 -0 9]] in CSR, the zeros stored.
	csrPtr, csrCol := []int{0, 2, 5, 7}, []int{0, 1, 0, 1, 2, 1, 2}
	csr := func() []float64 { return []float64{1, 2, 2, 5, math.Copysign(0, -1), math.Copysign(0, -1), 9} }
	// Two block rows of 2×2 blocks: (0,0), (0,1), (1,0), (1,1).
	bsrPtr, bsrCol := []int{0, 2, 4}, []int{0, 1, 0, 1}
	bsr := func() []float64 {
		return []float64{
			1, 2, 2, 3, // (0,0)
			4, 5, 6, 7, // (0,1)
			4, 6, 5, 7, // (1,0), the transpose of (0,1)
			8, 0, 0, 9, // (1,1)
		}
	}
	if mustPanic(func() { SymmetricValues(3, 1, csrPtr, csrCol, csr(), "test") }) {
		t.Fatal("a symmetric CSR must pass")
	}
	if mustPanic(func() { SymmetricValues(2, 2, bsrPtr, bsrCol, bsr(), "test") }) {
		t.Fatal("a symmetric BSR must pass")
	}
	bad := []struct {
		name string
		fn   func()
	}{
		{"csr last bit", func() {
			v := csr()
			v[1] = math.Nextafter(v[1], 3)
			SymmetricValues(3, 1, csrPtr, csrCol, v, "test")
		}},
		{"csr signed zero", func() {
			v := csr()
			v[4] = 0
			SymmetricValues(3, 1, csrPtr, csrCol, v, "test")
		}},
		{"csr pattern", func() { SymmetricValues(2, 1, []int{0, 2, 3}, []int{0, 1, 1}, []float64{1, 0, 1}, "test") }},
		{"bsr off-diagonal block", func() {
			v := bsr()
			v[9] = 5.5
			SymmetricValues(2, 2, bsrPtr, bsrCol, v, "test")
		}},
		{"bsr diagonal block", func() {
			v := bsr()
			v[13] = math.Copysign(0, -1)
			SymmetricValues(2, 2, bsrPtr, bsrCol, v, "test")
		}},
	}
	for _, tc := range bad {
		if got := mustPanic(tc.fn); got != Enabled {
			t.Errorf("%s: panicked=%v, want %v", tc.name, got, Enabled)
		}
	}
}

func TestSortedUnique(t *testing.T) {
	if mustPanic(func() { SortedUnique([]int{0, 3, 7}, 8, "test") }) {
		t.Fatal("sorted unique slice must pass")
	}
	if got := mustPanic(func() { SortedUnique([]int{0, 3, 3}, 8, "test") }); got != Enabled {
		t.Errorf("duplicate: panicked=%v, want %v", got, Enabled)
	}
	if got := mustPanic(func() { SortedUnique([]int{0, 9}, 8, "test") }); got != Enabled {
		t.Errorf("out of range: panicked=%v, want %v", got, Enabled)
	}
}

func TestStrictlyDecreasing(t *testing.T) {
	if mustPanic(func() { StrictlyDecreasing([]int{100, 40, 9}, "test") }) {
		t.Fatal("decreasing dims must pass")
	}
	if got := mustPanic(func() { StrictlyDecreasing([]int{100, 100}, "test") }); got != Enabled {
		t.Errorf("stalled dims: panicked=%v, want %v", got, Enabled)
	}
}

func TestIndependentSet(t *testing.T) {
	// Path graph 0-1-2-3.
	nbr := func(v int) []int {
		switch v {
		case 0:
			return []int{1}
		case 3:
			return []int{2}
		default:
			return []int{v - 1, v + 1}
		}
	}
	if mustPanic(func() { IndependentSet([]int{0, 2}, 4, nbr, nil, "test") }) {
		t.Fatal("independent set must pass")
	}
	if got := mustPanic(func() { IndependentSet([]int{0, 1}, 4, nbr, nil, "test") }); got != Enabled {
		t.Errorf("adjacent pair: panicked=%v, want %v", got, Enabled)
	}
	// Immortal vertices are exempt from independence.
	imm := []bool{false, true, false, false}
	if mustPanic(func() { IndependentSet([]int{0, 1}, 4, nbr, imm, "test") }) {
		t.Fatal("immortal neighbour must be allowed")
	}
	if mustPanic(func() { IndependentSet([]int{2, 0}, 4, nbr, nil, "test") }) {
		t.Fatal("unsorted but independent set must pass")
	}
	if got := mustPanic(func() { IndependentSet([]int{0, 0}, 4, nbr, nil, "test") }); got != Enabled {
		t.Errorf("duplicate vertex: panicked=%v, want %v", got, Enabled)
	}
}

func TestPartition(t *testing.T) {
	if mustPanic(func() { Partition([]int{0, 1, 1, 0}, 2, "test") }) {
		t.Fatal("valid partition must pass")
	}
	if got := mustPanic(func() { Partition([]int{0, 2}, 2, "test") }); got != Enabled {
		t.Errorf("rank out of range: panicked=%v, want %v", got, Enabled)
	}
}
