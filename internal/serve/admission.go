package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// admissionCap is the compile-time upper bound on concurrent admitted
// solves. The semaphore channel is created at this constant capacity; the
// configured limit only controls how many tokens are seeded, so runtime
// configuration can never grow the queue.
const admissionCap = 256

// ErrBusy is returned by a non-waiting Acquire when every admission slot
// is taken; the handler maps it to 503 + Retry-After (backpressure).
var ErrBusy = errors.New("serve: all solve slots busy")

// admission is a token-pool semaphore bounding concurrent solves. A slot
// is a token in the channel: Acquire receives one, Release puts it back.
// Both sides are select-guarded, so no request-path operation can block
// without a cancellation path.
type admission struct {
	tokens chan struct{}
	// held counts outstanding acquires, so an unpaired Release is caught
	// even when the configured limit sits below the channel capacity.
	held atomic.Int64
	// waiting counts requests blocked in a wait=true Acquire.
	waiting atomic.Int64
}

// newAdmission builds a semaphore with `limit` slots (clamped to
// [1, admissionCap]).
func newAdmission(limit int) *admission {
	if limit < 1 {
		limit = 1
	}
	if limit > admissionCap {
		limit = admissionCap
	}
	a := &admission{tokens: make(chan struct{}, admissionCap)}
	for i := 0; i < limit; i++ {
		select {
		case a.tokens <- struct{}{}:
		default:
			panic("serve: admission seed overflowed the token channel")
		}
	}
	return a
}

// Acquire takes one admission slot. With wait=false it never blocks:
// a full service returns ErrBusy immediately. With wait=true it blocks
// until a slot frees or ctx is cancelled. Every successful Acquire must
// be paired with exactly one Release (TestHandleSolveClosesTheBooks holds
// the handler to it on every exit).
func (a *admission) Acquire(ctx context.Context, wait bool) error {
	if !wait {
		select {
		case <-a.tokens:
			a.held.Add(1)
			return nil
		default:
			return ErrBusy
		}
	}
	// Waiting depth is a gauge of current value: entering the blocking
	// select raises it, leaving (admitted or cancelled) lowers it.
	gAdmWaiting.Set(a.waiting.Add(1))
	defer func() { gAdmWaiting.Set(a.waiting.Add(-1)) }()
	select {
	case <-a.tokens:
		a.held.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot. The send is select-guarded and asserts it can
// never block: more Releases than Acquires is a pairing bug, and the
// panic surfaces it instead of silently growing capacity.
func (a *admission) Release() {
	if a.held.Add(-1) < 0 {
		panic("serve: admission release without a matching acquire")
	}
	select {
	case a.tokens <- struct{}{}:
	default:
		panic("serve: admission release overflowed the token channel")
	}
}
