//go:build timing

package prometheus

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"prometheus/internal/obs"
)

// The one tier-1 test that read the clock for a verdict lives here, behind
// the timing build tag: its 5% bound is judged on a host whose speed
// drifts by tens of percent within one process, and it takes seconds. Run
// it on its own:
//
//	go test -tags timing -run TestSmootherObsOverhead .

// TestSmootherObsOverhead gates the cost of the observability spans on
// the smoother hot path: with recording enabled, a smoothing step of the
// fine level's smoother — the CG iteration with its block-Jacobi solves
// that every solve runs — may be at most 5% slower than with recording
// off. Off and on batches
// alternate, the order within a pair alternates too, and the verdict is
// read from the per-pair on/off ratios: the two batches of a pair run
// within milliseconds of each other, so a host whose core speed drifts
// from second to second slows both alike, and the middle of the sorted
// ratios discards the pairs a scheduler hiccup split. (Over 100 runs on a
// 2-vCPU guest the median of a Jacobi sweep stayed in 0.99-1.03, while the
// ratio of the two sides' fastest batches reached 1.22: one side can catch
// a fast moment of the host that the other never sees.)
//
// The step is gated twice. On one core it is the serial loop and the gate
// is the median. On the default path its residual, operator product and
// block solves are cut over the shared worker set — every dispatch of a
// batch must run there — and recording adds a pool.task span per helper
// per dispatch, the per-lane row counts and the dispatch counters; a step
// that wants both cores is timed by whatever else wants one (the other
// test binaries of `go test ./...`, for one), so there the gate is the
// lower end of the median's 99.9% confidence interval (order statistics
// 121 and 180 of 300 pairs; 0.99-1.02 alone on a 2-vCPU guest): it fails
// when the pairs show the overhead, not when they cannot tell.
func TestSmootherObsOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate skipped in -short mode and under the race detector")
	}
	sm, rhs := fineSmoother(t)
	x := make([]float64, len(rhs))

	const sweepsPerBatch = 10
	batch := func() time.Duration {
		// Every batch smooths from the same guess, so both sides do the
		// same arithmetic. Switching recording on resets every counter,
		// long enough for the shared set's helper to stop polling and park:
		// one untimed step, on either side, has it polling again when the
		// clock starts.
		clear(x)
		sm.Smooth(x, rhs, 1)
		t0 := time.Now()
		for i := 0; i < sweepsPerBatch; i++ {
			sm.Smooth(x, rhs, 1)
		}
		return time.Since(t0)
	}
	// ratios returns the sorted on/off ratios of the pairs and, of the pool
	// dispatches of the last on batch, how many ran on the shared worker
	// set and how many ran serially.
	ratios := func(pairs int) (rs []float64, pooled, serial int64) {
		// The first EnableWith allocates the trace ring; the ones in the loop
		// find it at the requested size and only reset counters, so no pair
		// times an allocation or the collection after it.
		cfg := obs.Config{RingCap: 1 << 16}
		obs.EnableWith(cfg)
		defer obs.Disable()
		sm.Smooth(x, rhs, 1) // warm caches before the first measurement
		rs = make([]float64, pairs)
		for i := range rs {
			// Even pairs run off then on, odd pairs on then off: whatever the
			// second batch of a pair inherits from the first lands on each
			// side equally often.
			var off, on time.Duration
			if i%2 == 0 {
				obs.Disable()
				off = batch()
				obs.EnableWith(cfg)
				on = batch()
			} else {
				obs.EnableWith(cfg)
				on = batch()
				obs.Disable()
				off = batch()
			}
			rs[i] = float64(on) / float64(off)
		}
		sort.Float64s(rs)
		// The last pair ran on then off, so the counters hold its on batch.
		snap := obs.Snapshot()
		return rs, snap.Counter("pool.dispatch.pooled"),
			snap.Counter("pool.dispatch.serial_grain") + snap.Counter("pool.dispatch.serial_busy")
	}
	t.Run("serial", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const pairs, mid = 100, 50
		rs, pooled, _ := ratios(pairs)
		t.Logf("smoothing step obs on/off: median %.4fx of %d pairs of %d steps (range %.3f-%.3f)",
			rs[mid], pairs, sweepsPerBatch, rs[0], rs[pairs-1])
		if pooled != 0 {
			t.Fatalf("%d dispatches of a batch ran on the shared worker set on one core", pooled)
		}
		if rs[mid] > 1.05 {
			t.Errorf("obs-enabled smoothing step is %.1f%% slower than disabled, gate is 5%%", 100*(rs[mid]-1))
		}
	})
	t.Run("pooled", func(t *testing.T) {
		atLeastTwoProcs(t)
		const pairs, lo, mid, hi = 300, 120, 150, 179
		rs, pooled, serial := ratios(pairs)
		t.Logf("smoothing step obs on/off: median %.4fx [%.4f, %.4f] of %d pairs of %d steps (range %.3f-%.3f)",
			rs[mid], rs[lo], rs[hi], pairs, sweepsPerBatch, rs[0], rs[pairs-1])
		if pooled == 0 || serial != 0 {
			t.Fatalf("%d of the %d dispatches of a batch ran on the shared worker set: the gate is not on the pooled path", pooled, pooled+serial)
		}
		if rs[lo] > 1.05 {
			t.Errorf("obs-enabled smoothing step is at least %.1f%% slower than disabled on the shared worker set, gate is 5%%", 100*(rs[lo]-1))
		}
	})
}
