//go:build promdebug

package par

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is where the message protocol is checked: the tracer records
// the collective sequence each rank actually executed (every rank of a
// correct run reports the same one), and the deadlock watchdog turns a
// silent hang — a receive nobody sends, a collective some rank skips —
// into a diagnostic dump naming each rank's last completed protocol event
// and the operation it is blocked on. A send nobody receives is caught by
// the drain check at the end of Comm.Run.
//
// The per-event hooks are allocation-free (fixed rings, per-rank mutexes,
// one atomic progress counter); all formatting happens at dump time. This
// matters because the steady-state allocation tests run under this build
// tag too.

// traceRing is the per-rank collective-history depth kept for dumps.
const traceRing = 64

// defaultStall is the watchdog stall threshold when neither
// SetWatchdogStall nor PROMETHEUS_WATCHDOG_STALL overrides it. It is
// generous because ranks legitimately go quiet during long local compute
// phases between collectives.
const defaultStall = 30 * time.Second

var (
	watchdogMu    sync.Mutex
	watchdogStall time.Duration // 0 = unset; see stallSetting
	watchdogHook  func(dump string)
)

// SetWatchdogStall overrides the deadlock watchdog's stall threshold for
// communicators created afterwards. It takes precedence over the
// PROMETHEUS_WATCHDOG_STALL environment variable; d <= 0 restores the
// default. Tests use a short stall so protocol bugs dump within
// milliseconds instead of hanging for the full default.
func SetWatchdogStall(d time.Duration) {
	watchdogMu.Lock()
	if d <= 0 {
		watchdogStall = 0
	} else {
		watchdogStall = d
	}
	watchdogMu.Unlock()
}

// SetWatchdogHook installs fn to receive the watchdog's diagnostic dump
// instead of the default behaviour (write to stderr, optionally to the
// PROMETHEUS_WATCHDOG_DUMP file, then panic). A nil fn restores the
// default. The hook runs on the watchdog goroutine while the deadlocked
// ranks are still blocked.
func SetWatchdogHook(fn func(dump string)) {
	watchdogMu.Lock()
	watchdogHook = fn
	watchdogMu.Unlock()
}

// stallSetting resolves the effective stall threshold: SetWatchdogStall
// beats PROMETHEUS_WATCHDOG_STALL beats the default.
func stallSetting() time.Duration {
	watchdogMu.Lock()
	d := watchdogStall
	watchdogMu.Unlock()
	if d > 0 {
		return d
	}
	if s := os.Getenv("PROMETHEUS_WATCHDOG_STALL"); s != "" {
		if v, err := time.ParseDuration(s); err == nil && v > 0 {
			return v
		}
	}
	return defaultStall
}

// traceOp identifies one protocol operation: its kind and, for
// point-to-point operations, the peer rank and message tag (-1 for
// collectives).
type traceOp struct {
	kind eventKind
	peer int
	tag  int
}

func (op traceOp) describe() string {
	if op.kind == evNone {
		return "none"
	}
	if op.peer < 0 {
		return op.kind.String()
	}
	return fmt.Sprintf("%s(peer=%d, tag=%d)", op.kind, op.peer, op.tag)
}

// rankTrace is the per-rank protocol state. Each rank mutates only its own
// entry, so the mutex is uncontended except when the watchdog snapshots.
type rankTrace struct {
	mu        sync.Mutex
	last      traceOp // last completed protocol event
	nEvents   uint64  // completed protocol events
	blocked   traceOp // operation the rank entered but has not completed
	isBlocked bool
	ring      [traceRing]eventKind // circular collective history
	nColl     uint64               // total collectives completed
}

// tracer records per-rank protocol sequences and runs the deadlock
// watchdog while a Comm.Run is in flight.
type tracer struct {
	ranks    []rankTrace
	progress atomic.Uint64
	stall    time.Duration
	stop     chan struct{}
	done     chan struct{}
}

func (t *tracer) init(p int) {
	t.ranks = make([]rankTrace, p)
	t.stall = stallSetting()
}

// event records completion of a protocol operation on rank.
func (t *tracer) event(rank int, k eventKind, peer, tag int) {
	rt := &t.ranks[rank]
	rt.mu.Lock()
	rt.last = traceOp{kind: k, peer: peer, tag: tag}
	rt.nEvents++
	rt.isBlocked = false
	if k.isCollective() {
		rt.ring[rt.nColl%traceRing] = k
		rt.nColl++
	}
	rt.mu.Unlock()
	t.progress.Add(1)
}

// block records that rank entered a potentially blocking operation; the
// matching event call clears it.
func (t *tracer) block(rank int, k eventKind, peer, tag int) {
	rt := &t.ranks[rank]
	rt.mu.Lock()
	rt.blocked = traceOp{kind: k, peer: peer, tag: tag}
	rt.isBlocked = true
	rt.mu.Unlock()
}

func (t *tracer) runStart(c *Comm) {
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go t.watch()
}

func (t *tracer) runEnd() {
	close(t.stop)
	<-t.done
}

// watch polls the progress counter and fires once no protocol event has
// completed for the stall threshold while at least one rank sits inside a
// blocking operation.
func (t *tracer) watch() {
	defer close(t.done)
	tick := t.stall / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := t.progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		if p := t.progress.Load(); p != last {
			last = p
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) < t.stall || !t.anyBlocked() {
			continue
		}
		t.fire()
		return
	}
}

func (t *tracer) anyBlocked() bool {
	for i := range t.ranks {
		rt := &t.ranks[i]
		rt.mu.Lock()
		b := rt.isBlocked
		rt.mu.Unlock()
		if b {
			return true
		}
	}
	return false
}

// fire emits the diagnostic dump. With a hook installed the hook consumes
// it; otherwise the dump goes to stderr (and to the file named by
// PROMETHEUS_WATCHDOG_DUMP, for CI artifact collection) and the watchdog
// panics so the hang becomes a crash with a cause attached.
func (t *tracer) fire() {
	dump := t.dump()
	if path := os.Getenv("PROMETHEUS_WATCHDOG_DUMP"); path != "" {
		if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "par: watchdog could not write dump file: %v\n", err)
		}
	}
	watchdogMu.Lock()
	hook := watchdogHook
	watchdogMu.Unlock()
	if hook != nil {
		hook(dump)
		return
	}
	fmt.Fprint(os.Stderr, dump)
	panic("par: deadlock watchdog: no protocol progress for " + t.stall.String())
}

// dump renders every rank's protocol state: the blocked operation (if
// any), the last completed event, and the tail of its collective
// sequence. Ranks whose collective tails differ point straight at the
// uniformity violation.
func (t *tracer) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "par: deadlock watchdog fired after %v without protocol progress\n", t.stall)
	for i := range t.ranks {
		rt := &t.ranks[i]
		rt.mu.Lock()
		state := "running"
		if rt.isBlocked {
			state = "blocked on " + rt.blocked.describe()
		}
		fmt.Fprintf(&b, "  rank %d: %s; last event %s; %d events, %d collectives\n",
			i, state, rt.last.describe(), rt.nEvents, rt.nColl)
		n := rt.nColl
		depth := uint64(traceRing)
		if n < depth {
			depth = n
		}
		if depth > 0 {
			b.WriteString("    collective tail:")
			for j := n - depth; j < n; j++ {
				b.WriteByte(' ')
				b.WriteString(rt.ring[j%traceRing].String())
			}
			b.WriteByte('\n')
		}
		rt.mu.Unlock()
	}
	return b.String()
}

// CollectiveTrace returns the recorded collective-event names of one rank,
// oldest first, up to the trace ring depth. It lets tests assert the
// uniform-sequence oracle: after a correct run every rank reports the same
// sequence.
func (c *Comm) CollectiveTrace(rank int) []string {
	rt := &c.trace.ranks[rank]
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := rt.nColl
	depth := uint64(traceRing)
	if n < depth {
		depth = n
	}
	out := make([]string, 0, depth)
	for j := n - depth; j < n; j++ {
		out = append(out, rt.ring[j%traceRing].String())
	}
	return out
}
