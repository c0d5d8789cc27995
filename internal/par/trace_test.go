//go:build promdebug

package par

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"prometheus/internal/graph"
)

// watchdogDump arms the watchdog with a short stall and a capturing hook,
// launches the (deliberately deadlocking) rank body on its own goroutine,
// and returns the diagnostic dump. The Run goroutine stays blocked in the
// broken protocol for the life of the test binary — exactly the hang the
// watchdog exists to diagnose — so it is never joined.
func watchdogDump(t *testing.T, p int, body func(r *Rank)) string {
	t.Helper()
	SetWatchdogStall(50 * time.Millisecond)
	t.Cleanup(func() { SetWatchdogStall(0) })
	fired := make(chan string, 1)
	SetWatchdogHook(func(dump string) { fired <- dump })
	t.Cleanup(func() { SetWatchdogHook(nil) })

	c := NewComm(p)
	go c.Run(body)
	select {
	case dump := <-fired:
		return dump
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not fire on a deadlocked protocol")
		return ""
	}
}

// The rows of TestSeededFaults (race_test.go) that only this build can
// fail: a hang needs the watchdog to become a dump, a leftover message
// needs the drain check at the end of Run.
func init() {
	seededFaults = append(seededFaults,
		seededFault{
			name: "never-sent-tag",
			fail: func(t *testing.T) string {
				return watchdogDump(t, 2, func(r *Rank) {
					if r.ID() == 0 {
						r.Recv(1, 99)
					}
				})
			},
			want: []string{"deadlock watchdog fired", "rank 0: blocked on recv(peer=1, tag=99)"},
		},
		seededFault{
			name: "rank-dependent-barrier",
			fail: func(t *testing.T) string {
				return watchdogDump(t, 2, func(r *Rank) {
					r.AllReduceIntSum(1) // both ranks: completes
					if r.ID() == 0 {
						r.Barrier() // rank 1 never joins
					}
				})
			},
			want: []string{"rank 0: blocked on barrier", "collective tail: allreduce-intsum"},
		},
		seededFault{
			name: "never-received-send",
			fail: func(*testing.T) string {
				return panicText(2, func(r *Rank) {
					if r.ID() == 0 {
						r.Send(1, 7, "stray", 8)
					}
				})
			},
			want: []string{"par: rank 0 sent tag 7 to rank 1, never received"},
		},
		seededFault{
			// The receiver took tag 8 past it, so the stray sits in the
			// rank's pending queue rather than in the channel.
			name: "never-received-send-queued",
			fail: func(*testing.T) string {
				return panicText(2, func(r *Rank) {
					if r.ID() == 0 {
						r.Send(1, 7, "stray", 8)
						r.Send(1, 8, "wanted", 8)
					} else {
						r.Recv(0, 8)
					}
				})
			},
			want: []string{"par: rank 0 sent tag 7 to rank 1, never received"},
		},
	)
}

// TestWatchdogDumpFile checks the CI artifact path: with
// PROMETHEUS_WATCHDOG_DUMP set, the dump is also written to that file.
func TestWatchdogDumpFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "watchdog.txt")
	t.Setenv("PROMETHEUS_WATCHDOG_DUMP", path)
	watchdogDump(t, 2, func(r *Rank) {
		if r.ID() == 1 {
			r.Recv(0, 42)
		}
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("watchdog dump file not written: %v", err)
	}
	if !strings.Contains(string(data), "rank 1: blocked on recv(peer=0, tag=42)") {
		t.Fatalf("dump file content wrong:\n%s", data)
	}
}

// TestCollectiveTraceUniform states collective uniformity on the code that
// runs: the package's protocols, on 1, 2, 3 and 8 ranks, leave every rank
// with the same collective sequence. (That they also leave no message
// behind is checked by Run itself in this build; ParallelIdentifyFaces has
// the same test in internal/topo.)
func TestCollectiveTraceUniform(t *testing.T) {
	const nb = 40
	a := blockTestMatrix(nb, rand.New(rand.NewSource(9)))
	acsr := a.ToCSR()
	x := make([]float64, a.Rows())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, len(x))
	g := gridGraph3D(5)
	order := graph.RandomOrder(g.N, 11)

	protocols := []struct {
		name string
		run  func(c *Comm, nodeOwner []int)
		want []string // the exact sequence, where it does not depend on the input
	}{
		{
			name: "every-collective",
			run: func(c *Comm, _ []int) {
				c.Run(func(r *Rank) {
					r.Barrier()
					r.AllReduceIntSum(r.ID())
					AllGatherAs(r, r.ID())
					r.AllReduceSum(float64(r.ID()))
					r.AllReduceMax(float64(r.ID()))
				})
			},
			want: []string{"barrier", "allreduce-intsum", "allgather", "allreduce-sum", "allreduce-max"},
		},
		{
			name: "halo-mulvec-dot",
			run: func(c *Comm, nodeOwner []int) {
				h := NewHalo(acsr, expandOwner(nodeOwner, 3), c.Size())
				c.Run(func(r *Rank) {
					xl := append([]float64(nil), x...) // Exchange writes ghosts
					h.MulVec(r, acsr, xl, y)
					h.Dot(r, xl, y)
				})
			},
			want: []string{"allreduce-sum"},
		},
		{
			name: "block-halo-mulvec-dot",
			run: func(c *Comm, nodeOwner []int) {
				h := NewBlockHalo(a, nodeOwner, c.Size())
				c.Run(func(r *Rank) {
					xl := append([]float64(nil), x...)
					h.MulVecBSR(r, a, xl, y)
					h.Dot(r, xl, y)
				})
			},
			want: []string{"allreduce-sum"},
		},
		{
			name: "parallel-mis",
			run: func(c *Comm, _ []int) {
				owner := make([]int, g.N)
				for v := range owner {
					owner[v] = v % c.Size()
				}
				ParallelMIS(c, g, owner, order, nil, nil)
			},
		},
	}
	for _, pr := range protocols {
		for _, p := range []int{1, 2, 3, 8} {
			nodeOwner := make([]int, nb)
			for i := range nodeOwner {
				nodeOwner[i] = i * p / nb
			}
			c := NewComm(p)
			pr.run(c, nodeOwner)
			want := pr.want
			if want == nil {
				want = c.CollectiveTrace(0)
			}
			if len(want) == 0 {
				t.Fatalf("%s p=%d: no collective recorded", pr.name, p)
			}
			for rank := 0; rank < p; rank++ {
				if got := c.CollectiveTrace(rank); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s p=%d: rank %d trace %v, want %v", pr.name, p, rank, got, want)
				}
			}
		}
	}
}

// TestWatchdogStallSetting checks the knob precedence: SetWatchdogStall
// beats the PROMETHEUS_WATCHDOG_STALL environment variable, which beats
// the default.
func TestWatchdogStallSetting(t *testing.T) {
	t.Setenv("PROMETHEUS_WATCHDOG_STALL", "45ms")
	if c := NewComm(1); c.trace.stall != 45*time.Millisecond {
		t.Fatalf("env stall not honoured: %v", c.trace.stall)
	}
	SetWatchdogStall(2 * time.Second)
	defer SetWatchdogStall(0)
	if c := NewComm(1); c.trace.stall != 2*time.Second {
		t.Fatalf("SetWatchdogStall must beat the env: %v", c.trace.stall)
	}
	SetWatchdogStall(0)
	t.Setenv("PROMETHEUS_WATCHDOG_STALL", "")
	if c := NewComm(1); c.trace.stall != defaultStall {
		t.Fatalf("default stall not restored: %v", c.trace.stall)
	}
}
