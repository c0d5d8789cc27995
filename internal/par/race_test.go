package par

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestCommStress hammers every collective and the point-to-point paths
// from many ranks at once. It exists to run under the race detector
// (go test -race ./internal/par/...): the barrier and reduce paths are
// built on hand-rolled sync.Cond generation counters, and this test is
// the regression net that keeps them honest. Ranks deliberately skew
// their arrival times so that consecutive collectives overlap — the
// historically race-prone interleaving, where a fast rank enters
// generation g+1 of a barrier or reduction while slow ranks are still
// draining generation g.
func TestCommStress(t *testing.T) {
	const p = 8
	iters := 300
	if testing.Short() {
		iters = 50
	}
	c := NewComm(p)
	c.Run(func(r *Rank) {
		me := r.ID()
		next := (me + 1) % p
		prev := (me + p - 1) % p
		for it := 0; it < iters; it++ {
			// Skew: make ranks arrive at each collective out of phase.
			for spin := 0; spin < (me*7+it)%13; spin++ {
				runtime.Gosched()
			}

			// Back-to-back reductions with no barrier in between: a fast
			// rank's generation g+1 contribution must not corrupt a slow
			// rank's generation g read.
			s := r.AllReduceSum(float64(me + it))
			if want := float64(p*(p-1)/2 + p*it); s != want {
				t.Errorf("iter %d rank %d: sum = %v, want %v", it, me, s, want)
			}
			n := r.AllReduceIntSum(1)
			if n != p {
				t.Errorf("iter %d rank %d: count = %d, want %d", it, me, n, p)
			}
			m := r.AllReduceMax(float64(me))
			if m != float64(p-1) {
				t.Errorf("iter %d rank %d: max = %v, want %v", it, me, m, float64(p-1))
			}

			// Ring point-to-point interleaved with the collectives; a fresh
			// tag per iteration proves out-of-order queuing.
			r.Send(next, 100+it, me*1000+it, 8)
			got := RecvAs[int](r, prev, 100+it)
			if want := prev*1000 + it; got != want {
				t.Errorf("iter %d rank %d: ring recv = %d, want %d", it, me, got, want)
			}

			if it%3 == 0 {
				vals := AllGatherAs(r, me*2)
				for i, v := range vals {
					if v != i*2 {
						t.Errorf("iter %d rank %d: gather[%d] = %v", it, me, i, v)
					}
				}
			}
			if it%5 == 0 {
				r.Barrier()
			}
		}
	})
}

// TestCommStressConcurrentComms runs several independent communicators at
// once: Comm state must never leak across instances.
func TestCommStressConcurrentComms(t *testing.T) {
	const nComms = 4
	done := make(chan struct{}, nComms)
	for k := 0; k < nComms; k++ {
		go func(k int) {
			defer func() { done <- struct{}{} }()
			p := 2 + k
			c := NewComm(p)
			c.Run(func(r *Rank) {
				for it := 0; it < 100; it++ {
					if got := r.AllReduceIntSum(1); got != p {
						t.Errorf("comm %d: count = %d, want %d", k, got, p)
					}
					r.Barrier()
				}
			})
		}(k)
	}
	for k := 0; k < nComms; k++ {
		<-done
	}
}

// seededFault is one row of TestSeededFaults: a protocol with a fault
// planted in it (or, with no want, deliberately without one) and the text
// its failure must carry.
type seededFault struct {
	name string
	fail func(t *testing.T) string // runs the protocol; how it failed, "" if it did not
	want []string                  // substrings the failure must contain; none: must run clean
}

// seededFaults holds the rows every build can run; trace_test.go appends
// the ones that need the promdebug watchdog and drain check.
var seededFaults = []seededFault{
	{
		name: "wrong-payload-type",
		fail: func(*testing.T) string {
			return panicText(2, func(r *Rank) {
				if r.ID() == 0 {
					r.Send(1, 1, "not an int", 8)
				} else {
					RecvAs[int](r, 0, 1)
				}
			})
		},
		want: []string{"Recv(from=0, tag=1) on rank 1", "payload is string, want int"},
	},
	{
		// A communicator is reused across Runs (RunCounted in a loop):
		// one that ended clean must start the next one clean.
		name: "clean-second-run",
		fail: func(*testing.T) string {
			ring := func(r *Rank) {
				p := r.Size()
				r.Send((r.ID()+1)%p, 5, r.ID(), 8)
				RecvAs[int](r, (r.ID()+p-1)%p, 5)
				r.Barrier()
			}
			return panicText(3, ring, ring)
		},
	},
}

// panicText runs the bodies one after another on one p-rank communicator
// and returns the text of the first panic, "" if there is none.
func panicText(p int, bodies ...func(r *Rank)) (text string) {
	defer func() {
		if e := recover(); e != nil {
			text = fmt.Sprint(e)
		}
	}()
	c := NewComm(p)
	for _, body := range bodies {
		c.Run(body)
	}
	return ""
}

// TestSeededFaults plants one protocol fault per row and requires the
// failure to name it — rank, peer and tag, or both payload types — which
// is how a wrong protocol is found in this package: by running it.
func TestSeededFaults(t *testing.T) {
	for _, row := range seededFaults {
		t.Run(row.name, func(t *testing.T) {
			got := row.fail(t)
			if len(row.want) == 0 && got != "" {
				t.Fatalf("clean protocol failed: %s", got)
			}
			for _, want := range row.want {
				if !strings.Contains(got, want) {
					t.Errorf("failure does not contain %q:\n%s", want, got)
				}
			}
		})
	}
}
