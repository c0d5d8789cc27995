package prometheus

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// The pool.Kernel contract, stated once and executably: MulVecRange(x, y,
// lo, hi) writes exactly y[lo:hi], never x, and what it writes to a row
// does not depend on the window the row arrived in. This file is the one
// place that can import sparse, fem and pool together, so every Kernel in
// the tree is a row of TestKernelContract. What it cannot see — a kernel
// that writes its own receiver, harmless serially and a data race under
// Dispatch — is the race job's: checkKernelContract ends by running the
// kernel through pool.Dispatch so `go test -race` and the promdebug
// ownership table (check.Owners) both observe it.

// contractSentinel pre-fills y: a quiet NaN whose payload no product
// computes, so an unwritten row, an accumulated-into row and a row
// written outside the window all stay recognisable bit for bit.
var contractSentinel = math.Float64frombits(0x7ff8_dead_beef_cafe)

// checkKernelContract verifies k on n rows over a sweep of windows whose
// bounds are multiples of align (sparse.DispatchAlign of the kernel): for
// every start, the empty window, one unit, half of what is left and all
// of what is left. It returns the first violation, naming the index.
func checkKernelContract(k pool.Kernel, n, align int) error {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
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
		// Dispatch cuts [0, n) into one chunk per worker, at most one per
		// unit. abreast holds them all inside their claims at once.
		var wg sync.WaitGroup
		wg.Add(max(1, min(nw, units)))
		p := pool.New(nw)
		p.Dispatch(abreast{k, &wg}, x, y, n, align)
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

// abreast makes the chunks of one Dispatch run side by side: no call
// starts its kernel before every call has arrived, so each chunk is on a
// worker of its own whatever the scheduler would have done with rows this
// few. That is what lets the race detector see two chunks write one
// receiver field, and check.Owners see two live claims that overlap.
type abreast struct {
	k  pool.Kernel
	wg *sync.WaitGroup
}

func (a abreast) MulVecRange(x, y []float64, lo, hi int) {
	a.wg.Done()
	a.wg.Wait()
	a.k.MulVecRange(x, y, lo, hi)
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

// contractEBE builds the matrix-free operator of a 2x2x2 hex cube
// clamped on z = 0 (54 free dofs).
func contractEBE(t *testing.T) *fem.EBEOperator {
	t.Helper()
	m := mesh.StructuredHex(2, 2, 2, 1, 1, 1, nil)
	c := fem.NewConstraints()
	for _, v := range m.VertsWhere(func(p geom.Vec3) bool { return p.Z == 0 }) {
		c.FixVert(v, 0, 0, 0)
	}
	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	op, err := fem.NewEBEOperator(p, make([]float64, m.NumDOF()), c, c.NewDofMap(m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestKernelContract runs every pool.Kernel in the tree through
// checkKernelContract. It is not skipped under -short: the full-tree race
// job runs -short and is the half of this check that sees receiver
// writes.
func TestKernelContract(t *testing.T) {
	bsr3, bsr2 := contractBSR(23, 3), contractBSR(17, 2)
	kernels := []struct {
		name string
		op   sparse.Operator
	}{
		{"CSR", bsr3.ToCSR()},
		{"BSR3", bsr3},
		{"BSR2", bsr2},
		{"EBEOperator", contractEBE(t)},
	}
	for _, c := range kernels {
		t.Run(c.name, func(t *testing.T) {
			if err := checkKernelContract(c.op, c.op.Rows(), sparse.DispatchAlign(c.op)); err != nil {
				t.Fatal(err)
			}
		})
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
		err := checkKernelContract(c.k, 12, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
