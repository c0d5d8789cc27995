//go:build promdebug

package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Owners is the runtime write-ownership sanitizer behind the promdebug
// tag: it checks the ranges a dispatch hands out, where TestKernelContract
// (module root) checks what a kernel does with its range. Each worker
// claims the half-open index range of the shared slice it is about to
// write; a claim that overlaps another worker's active claim on the same
// backing array panics with both workers' stacks, so a bad partition is
// caught at the first racy dispatch instead of corrupting results
// silently.
//
// The discipline mirrors internal/obs: storage is preallocated by Init,
// Claim fills a fixed per-worker stack buffer with runtime.Stack (no
// allocation), and when checking is disabled every entry point is a
// single atomic load. In release builds (no promdebug) Owners is an
// empty struct and all methods are no-ops compiled away behind
// check.Enabled guards.
type Owners struct {
	on     atomic.Bool
	mu     sync.Mutex
	claims []ownClaim
}

// Claims are expressed in the coordinates of the slice header passed to
// Claim: two claims collide when their index ranges intersect and the
// headers address the same element at a common index. Callers must
// therefore claim in the coordinates of the shared vector itself (as the
// pool does); differently-based subslice views of one array are distinct
// coordinate systems the table does not unify.

// ownClaim is one worker's active range on one shared backing array. The
// slice header is retained so overlap detection can compare element
// addresses — two claims collide only when their index ranges intersect
// on the same backing array.
type ownClaim struct {
	y      []float64
	lo, hi int
	// idx, when non-nil, makes this a set claim: the worker owns exactly
	// the listed indices of y instead of a contiguous range. Set claims
	// are how indexed dispatches such as the block solves (disjoint but
	// non-contiguous write sets) register with the sanitizer. The slice is retained, not
	// copied — callers pass precomputed immutable write sets.
	idx    []int32
	active bool
	stack  []byte // filled at claim time; preallocated by Init
	stackN int
}

// ownStackCap sizes the per-worker stack capture buffer.
const ownStackCap = 8 << 10

// Init sizes the table for nw workers and enables checking. It
// allocates; call it at pool construction, never per dispatch.
func (o *Owners) Init(nw int) {
	o.mu.Lock()
	if len(o.claims) != nw {
		o.claims = make([]ownClaim, nw)
		for w := range o.claims {
			o.claims[w].stack = make([]byte, ownStackCap)
		}
	}
	for w := range o.claims {
		o.claims[w].active = false
	}
	o.mu.Unlock()
	o.on.Store(true)
}

// Enable turns checking on (Init must have run).
func (o *Owners) Enable() { o.on.Store(true) }

// Disable turns checking off; Claim and Release become a single atomic
// load, so instrumented kernels can be benchmarked with the sanitizer
// compiled in but inert.
func (o *Owners) Disable() { o.on.Store(false) }

// Claim records that worker w is about to write y[lo:hi]. It panics if
// the range overlaps another worker's active claim on the same backing
// array, printing both claims and both workers' stacks.
func (o *Owners) Claim(w int, y []float64, lo, hi int) {
	if !o.on.Load() {
		return
	}
	if lo >= hi || lo < 0 || hi > len(y) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if w < 0 || w >= len(o.claims) {
		panic(fmt.Sprintf("check: Owners.Claim worker %d out of range [0,%d)", w, len(o.claims)))
	}
	c := &o.claims[w]
	c.y = y
	c.lo, c.hi = lo, hi
	c.idx = nil
	c.stackN = runtime.Stack(c.stack, false)
	c.active = true
	o.collide(w)
}

// ClaimIndices records that worker w is about to write exactly the listed
// indices of y (a set claim — the indexed-dispatch counterpart of Claim).
// It panics if any listed index lies inside another worker's active range
// claim, or is shared with another worker's active set claim, on the same
// backing array. The index slice is retained until Release; callers pass
// precomputed immutable write sets, never per-call temporaries they
// mutate.
func (o *Owners) ClaimIndices(w int, y []float64, idx []int32) {
	if !o.on.Load() {
		return
	}
	if len(idx) == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if w < 0 || w >= len(o.claims) {
		panic(fmt.Sprintf("check: Owners.ClaimIndices worker %d out of range [0,%d)", w, len(o.claims)))
	}
	c := &o.claims[w]
	c.y = y
	c.lo, c.hi = 0, 0
	c.idx = idx
	c.stackN = runtime.Stack(c.stack, false)
	c.active = true
	o.collide(w)
}

// collide panics if worker w's just-recorded claim overlaps any other
// worker's active claim. Callers hold o.mu.
func (o *Owners) collide(w int) {
	c := &o.claims[w]
	for v := range o.claims {
		if v == w || !o.claims[v].active {
			continue
		}
		d := &o.claims[v]
		if claimsOverlap(c, d) {
			panic(fmt.Sprintf(
				"check: cross-worker write overlap: worker %d claims %s overlapping worker %d's %s\n\n-- worker %d stack --\n%s\n-- worker %d stack --\n%s",
				w, claimDesc(c), v, claimDesc(d),
				w, c.stack[:c.stackN], v, d.stack[:d.stackN]))
		}
	}
}

// claimDesc formats a claim for the overlap panic.
func claimDesc(c *ownClaim) string {
	if c.idx != nil {
		return fmt.Sprintf("%d indices %v…", len(c.idx), c.idx[:min(len(c.idx), 8)])
	}
	return fmt.Sprintf("[%d,%d)", c.lo, c.hi)
}

// claimsOverlap reports whether two active claims cover a common element
// of the same backing array: the claimed coordinates intersect and, at a
// common index, both slice headers address the same element. Set claims
// compare index by index (write sets are element-sized, so the quadratic
// set-set comparison stays cheap).
func claimsOverlap(a, b *ownClaim) bool {
	switch {
	case a.idx == nil && b.idx == nil:
		if a.lo >= b.hi || b.lo >= a.hi {
			return false
		}
		m := a.lo
		if b.lo > m {
			m = b.lo
		}
		return &a.y[m] == &b.y[m]
	case a.idx != nil && b.idx == nil:
		return setRangeOverlap(a, b)
	case a.idx == nil:
		return setRangeOverlap(b, a)
	default:
		for _, i := range a.idx {
			ii := int(i)
			if ii < 0 || ii >= len(a.y) {
				continue
			}
			for _, j := range b.idx {
				if i == j && &a.y[ii] == &b.y[ii] {
					return true
				}
			}
		}
		return false
	}
}

// setRangeOverlap reports whether set claim s shares an element with
// range claim r on the same backing array.
func setRangeOverlap(s, r *ownClaim) bool {
	for _, i := range s.idx {
		ii := int(i)
		if ii < r.lo || ii >= r.hi || ii >= len(s.y) {
			continue
		}
		if &s.y[ii] == &r.y[ii] {
			return true
		}
	}
	return false
}

// Release clears worker w's active claim.
func (o *Owners) Release(w int) {
	if !o.on.Load() {
		return
	}
	o.mu.Lock()
	if w >= 0 && w < len(o.claims) {
		o.claims[w].active = false
		o.claims[w].y = nil
		o.claims[w].idx = nil
	}
	o.mu.Unlock()
}
