package pool

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"prometheus/internal/check"
	"prometheus/internal/obs"
)

// scaleKernel writes y[i] = 2*x[i] for i in [lo, hi).
type scaleKernel struct{}

func (scaleKernel) MulVecRange(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] = 2 * x[i]
	}
}

// markKernel records which rows were written and how often, for
// partition coverage checks. Counts are safe without synchronization
// because the dispatch partition is disjoint — which is exactly what the
// test asserts.
type markKernel struct{ hits []int32 }

func (m *markKernel) MulVecRange(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		m.hits[i]++
		y[i] = x[i]
	}
}

func TestDispatchCoversDomainOnce(t *testing.T) {
	for _, nw := range []int{1, 2, 3, 4, 7, 8} {
		p := New(nw)
		for _, n := range []int{1, 2, 3, 5, 16, 97, 1024} {
			for _, align := range []int{1, 3, 5} {
				m := &markKernel{hits: make([]int32, n)}
				x := make([]float64, n)
				y := make([]float64, n)
				p.Dispatch(m, x, y, n, align)
				for i, h := range m.hits {
					if h != 1 {
						t.Fatalf("nw=%d n=%d align=%d: row %d written %d times", nw, n, align, i, h)
					}
				}
			}
		}
		p.Close()
	}
}

func TestDispatchMatchesSerial(t *testing.T) {
	p := New(4)
	defer p.Close()
	n := 1001
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]float64, n)
	scaleKernel{}.MulVecRange(x, want, 0, n)
	got := make([]float64, n)
	p.Dispatch(scaleKernel{}, x, got, n, 1)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d: parallel %v != serial %v", i, got[i], want[i])
		}
	}
}

func TestDispatchZeroAndNegativeN(t *testing.T) {
	p := New(2)
	defer p.Close()
	p.Dispatch(scaleKernel{}, nil, nil, 0, 1)
	p.Dispatch(scaleKernel{}, nil, nil, -3, 1)
	x := make([]float64, 5)
	y := make([]float64, 5)
	p.Dispatch(scaleKernel{}, x, y, 5, 0) // align < 1 is clamped to 1
	for i := range y {
		if y[i] != 2*x[i] {
			t.Fatalf("row %d not written", i)
		}
	}
}

// TestDispatchSteadyStateZeroAlloc locks in the satellite requirement:
// after warm-up, a Dispatch must not allocate (the job in flight lives in
// the Pool, kernels convert to the interface without boxing because they
// are pointer-shaped or empty).
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	p := New(runtime.NumCPU())
	defer p.Close()
	if check.Enabled {
		// Claim bookkeeping is preallocated too, but stack capture cost
		// is not the point of this test; measure the release-shape path.
		p.Sanitizer().Disable()
	}
	n := 4096
	x := make([]float64, n)
	y := make([]float64, n)
	m := &markKernel{hits: make([]int32, n)}
	p.Dispatch(m, x, y, n, 1) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		p.Dispatch(m, x, y, n, 1)
	})
	if allocs != 0 {
		t.Fatalf("Dispatch allocates %.1f per call, want 0", allocs)
	}
}

// TestOwnersInertAlloc locks in that the ownership sanitizer costs a
// single atomic load and zero allocations when disabled — in both
// builds: the promdebug Owners with checking off, and the release stub.
func TestOwnersInertAlloc(t *testing.T) {
	var o check.Owners
	o.Init(4)
	o.Disable()
	y := make([]float64, 128)
	allocs := testing.AllocsPerRun(100, func() {
		o.Claim(1, y, 0, 64)
		o.Release(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled Owners allocates %.1f per claim/release, want 0", allocs)
	}
}

// procs runs the rest of the test with GOMAXPROCS at least n, so the
// shared set has a helper whatever the host has.
func procs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestSharedRunRules drives the default path's three outcomes and reads
// them back from the counters: below the grain the kernel runs serially,
// above it the helpers take part, and beside a dispatch in flight the
// caller runs its range itself instead of waiting — all to the same bits.
func TestSharedRunRules(t *testing.T) {
	procs(t, 2)
	obs.Enable()
	defer obs.Disable()
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]float64, n)
	scaleKernel{}.MulVecRange(x, want, 0, n)
	check := func(what string, got []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s: row %d: %v != %v", what, i, got[i], want[i])
			}
		}
	}

	y := make([]float64, n)
	Run(scaleKernel{}, x, y, n, 1, Grain-1)
	check("below the grain", y)
	if g, p := mGrain.Value(), mPooled.Value(); g != 1 || p != 0 {
		t.Fatalf("below the grain: serial_grain %d pooled %d, want 1 and 0", g, p)
	}

	y = make([]float64, n)
	Run(scaleKernel{}, x, y, n, 1, Grain)
	check("at the grain", y)
	if p := mPooled.Value(); p != 1 {
		t.Fatalf("at the grain: pooled %d, want 1", p)
	}

	// A dispatch held open inside its kernel: a second caller must come
	// back, with its rows written, while the first is still in there.
	inside, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	first := make(chan struct{})
	go func() {
		defer close(first)
		Run(gateKernel{func() { once.Do(func() { close(inside); <-release }) }}, x, make([]float64, n), n, 1, Grain)
	}()
	<-inside
	y = make([]float64, n)
	Run(scaleKernel{}, x, y, n, 1, Grain)
	check("beside a dispatch in flight", y)
	if b := mBusy.Value(); b != 1 {
		t.Fatalf("beside a dispatch in flight: serial_busy %d, want 1", b)
	}
	close(release)
	<-first
}

// gateKernel calls gate at the start of every chunk.
type gateKernel struct{ gate func() }

func (k gateKernel) MulVecRange(x, y []float64, lo, hi int) {
	k.gate()
	scaleKernel{}.MulVecRange(x, y, lo, hi)
}

// goid returns the current goroutine's id, from the header of its stack.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// helperPanicKernel panics with v on every goroutine but caller, and keeps
// caller inside its first chunk until that has happened, so the panic is a
// helper's whatever the scheduler does.
type helperPanicKernel struct {
	caller string
	v      any
	fired  chan struct{}
	once   *sync.Once
}

func (k helperPanicKernel) MulVecRange(x, y []float64, lo, hi int) {
	if goid() != k.caller {
		k.once.Do(func() { close(k.fired) })
		panic(k.v)
	}
	<-k.fired
}

// TestHelperPanicReachesDispatcher: a kernel panic on a helper ends the
// dispatch, is raised on the dispatching goroutine with its original
// value, and leaves the pool serving the next dispatch.
func TestHelperPanicReachesDispatcher(t *testing.T) {
	cause := errors.New("pool test: kernel panicked")
	for name, dispatch := range map[string]func(p *Pool, k Kernel, x, y []float64){
		"explicit": func(p *Pool, k Kernel, x, y []float64) { p.Dispatch(k, x, y, len(y), 1) },
		"shared":   func(_ *Pool, k Kernel, x, y []float64) { Run(k, x, y, len(y), 1, Grain) },
	} {
		t.Run(name, func(t *testing.T) {
			procs(t, 2)
			p := New(2)
			defer p.Close()
			x, y := make([]float64, 64), make([]float64, 64)
			k := helperPanicKernel{caller: goid(), v: cause, fired: make(chan struct{}), once: new(sync.Once)}
			got := func() (v any) {
				defer func() { v = recover() }()
				dispatch(p, k, x, y)
				return nil
			}()
			if got != any(cause) {
				t.Fatalf("recovered %v, want the kernel's own panic value", got)
			}
			// Not wedged, nothing left claimed: the next dispatch runs
			// and writes every row.
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				for i := range x {
					x[i] = float64(i)
				}
				dispatch(p, scaleKernel{}, x, y)
			}()
			select {
			case <-finished:
			case <-time.After(10 * time.Second):
				t.Fatal("the dispatch after the panic never returned")
			}
			for i := range y {
				if y[i] != 2*x[i] {
					t.Fatalf("after the panic: row %d not written", i)
				}
			}
		})
	}
}

// TestDispatchDoesNotWaitForAHelperThatNeverStarted: on one P the helper a
// dispatch wakes cannot run before the dispatcher gives the P up, which is
// what more solves than cores looks like to each of them. The dispatch must
// then be the serial loop: every chunk on the caller, and back without
// having yielded — a dispatcher that waited for the helper to report would
// have handed it the P, and the helper would have left a span per dispatch.
// (The runtime may still take the P away once or twice in a hundred
// dispatches: a collection, the race detector.)
func TestDispatchDoesNotWaitForAHelperThatNeverStarted(t *testing.T) {
	p := New(2)
	defer p.Close()
	if check.Enabled {
		p.Sanitizer().Disable() // its claims take a lock, which yields
	}
	for p.parked.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	obs.Enable()
	defer obs.Disable()
	n := 1024
	x, y := make([]float64, n), make([]float64, n)
	m := &markKernel{hits: make([]int32, n)}
	const dispatches = 100
	for i := 0; i < dispatches; i++ {
		p.Dispatch(m, x, y, n, 1)
	}
	prof := obs.Snapshot()
	if ev, ok := prof.Event("pool.task"); ok && ev.Totals().Count > dispatches/10 {
		t.Fatalf("the helper took part in %d of %d dispatches it could not have been scheduled for", ev.Totals().Count, dispatches)
	}
	for i, h := range m.hits {
		if h != dispatches {
			t.Fatalf("row %d written %d times in %d dispatches", i, h, dispatches)
		}
	}
}

// TestSharedSetFollowsGOMAXPROCS: the shared set has GOMAXPROCS-1 helpers
// at the moment of a dispatch, one core means none and no dispatch.
func TestSharedSetFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	obs.Enable()
	defer obs.Disable()
	n := 1024
	x, y := make([]float64, n), make([]float64, n)
	Run(scaleKernel{}, x, y, n, 1, Grain)
	if p := mPooled.Value(); p != 0 {
		t.Fatalf("one core: %d pooled dispatches, want none", p)
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		before := mPooled.Value()
		Run(scaleKernel{}, x, y, n, 1, Grain)
		if mPooled.Value() != before+1 {
			t.Fatalf("GOMAXPROCS=%d: the dispatch was not pooled", procs)
		}
		shared.mu.Lock()
		helpers := shared.helpers
		shared.mu.Unlock()
		if helpers < procs-1 {
			t.Fatalf("GOMAXPROCS=%d: %d helpers, want at least %d", procs, helpers, procs-1)
		}
	}
}
