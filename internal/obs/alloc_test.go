package obs

import "testing"

// Allocation lock-in for the recording fast paths: zero allocations
// per operation both disabled (the production default) and enabled
// (record-at-End into preallocated buffers). These are the primitives
// every instrumented kernel calls, so any regression here shows up as
// allocation churn across the whole solver stack.

var allocEv = Register("obstest.alloc")

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestRecordingAllocFreeDisabled(t *testing.T) {
	Disable()
	Reset()
	c := NewCounter("obstest.alloc.counter")
	h := NewHistogram("obstest.alloc.hist")
	assertZeroAllocs(t, "span disabled", func() {
		sp := Start(allocEv)
		sp.EndFlops(10)
	})
	assertZeroAllocs(t, "deferred span disabled", func() {
		sp := Start(allocEv)
		defer sp.End()
	})
	assertZeroAllocs(t, "counter disabled", func() { c.Add(1) })
	assertZeroAllocs(t, "histogram disabled", func() { h.Observe(7) })
	assertZeroAllocs(t, "addcomm disabled", func() { AddComm(allocEv, 0, 1, 64) })
	assertZeroAllocs(t, "residual disabled", func() { RecordResidual(1, 0.5) })
}

func TestRecordingAllocFreeEnabled(t *testing.T) {
	EnableWith(Config{Ranks: 2, RingCap: 1 << 16, ResidCap: 1 << 16})
	defer Disable()
	c := NewCounter("obstest.alloc.counter")
	h := NewHistogram("obstest.alloc.hist")
	assertZeroAllocs(t, "span enabled", func() {
		sp := StartRank(allocEv, 1)
		sp.EndFlops(10)
	})
	assertZeroAllocs(t, "deferred span enabled", func() {
		sp := Start(allocEv)
		defer sp.End()
	})
	assertZeroAllocs(t, "counter enabled", func() { c.Add(1) })
	assertZeroAllocs(t, "histogram enabled", func() { h.Observe(7) })
	assertZeroAllocs(t, "addcomm enabled", func() { AddComm(allocEv, 0, 1, 64) })
	assertZeroAllocs(t, "residual enabled", func() { RecordResidual(1, 0.5) })
	// Overflowing the ring must stay allocation-free too (drop path).
	Reset()
	for i := 0; i < 1<<16; i++ {
		Start(allocEv).End()
	}
	assertZeroAllocs(t, "span enabled ring full", func() {
		Start(allocEv).End()
	})
}

// TestTaskRecordingAllocFree locks in the tentpole's overhead contract:
// crediting spans and counters to a request task allocates nothing per
// operation, enabled or disabled, so per-request attribution rides the
// same zero-alloc fast path as the global recorder.
func TestTaskRecordingAllocFree(t *testing.T) {
	Disable()
	Reset()
	offTask := NewTask("")
	assertZeroAllocs(t, "task span disabled", func() {
		sp := StartTask(allocEv, offTask)
		sp.EndFlops(10)
	})
	assertZeroAllocs(t, "task counters disabled", func() {
		offTask.AddFlops(3)
		offTask.AddVCycles(1)
	})

	EnableWith(Config{Ranks: 2, RingCap: 1 << 16})
	defer Disable()
	task := NewTask("")
	assertZeroAllocs(t, "task span enabled", func() {
		sp := StartRankTask(allocEv, 1, task)
		sp.EndFlops(10)
	})
	assertZeroAllocs(t, "task counters enabled", func() {
		task.AddFlops(3)
		task.AddVCycles(1)
	})
	// Overflow the task ring: further spans drop (counted), still
	// allocation-free.
	for i := 0; i < taskRingCap+8; i++ {
		StartTask(allocEv, task).End()
	}
	assertZeroAllocs(t, "task span drop path", func() {
		StartTask(allocEv, task).End()
	})
	if task.Dropped() == 0 {
		t.Errorf("task ring overflow not counted")
	}
	// nil task: the untraced production path.
	assertZeroAllocs(t, "nil task span", func() {
		sp := StartTask(allocEv, nil)
		sp.EndFlops(10)
	})
}
