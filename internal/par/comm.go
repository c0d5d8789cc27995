// Package par simulates the paper's message passing: the paper runs on
// MPI over a 960-processor IBM SMP cluster; here p ranks run
// bulk-synchronous rounds. A round runs every rank's local step, in rank
// order on the calling goroutine; a message posted in one round is read in
// the next, and a global reduction is a per-rank slice written during a
// round and folded in rank order after it. The parallel algorithms of the
// paper (the rank-based parallel MIS of section 4.2, the seeded parallel
// face identification of section 4.5, and row-partitioned matrix-vector
// products with halo exchange) are rounds of local work separated by ghost
// exchanges, so they run on this driver unchanged and deterministically.
//
// Every rank carries flop and traffic counters; the perf package converts
// the measured counts into the paper's efficiency metrics using a machine
// model calibrated to the paper's hardware.
package par

import (
	"fmt"

	"prometheus/internal/check"
	"prometheus/internal/obs"
)

// Comm is a communicator over a fixed number of ranks.
type Comm struct {
	// Per-rank counters, accumulated over every round run on c.
	Flops []int64
	Msgs  []int64 // messages posted to another rank
	Bytes []int64 // bytes of those messages

	mails []mailbox
}

// mailbox is the round-end hook of a Mail.
type mailbox interface{ endRound() }

// NewComm returns a communicator with p ranks.
func NewComm(p int) *Comm {
	if p < 1 {
		panic("par: communicator needs at least one rank")
	}
	return &Comm{Flops: make([]int64, p), Msgs: make([]int64, p), Bytes: make([]int64, p)}
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.Flops) }

// Round runs step for every rank, in rank order, then delivers the
// messages posted during the round.
func (c *Comm) Round(step func(rank int)) {
	for r := range c.Flops {
		step(r)
	}
	for _, m := range c.mails {
		m.endRound()
	}
}

// AddFlops adds n to the rank's flop counter.
func (c *Comm) AddFlops(rank int, n int64) {
	c.Flops[rank] += n
	obs.AddFlops(obsRankEv, rank, n)
}

// Mail carries messages of one payload type between the ranks of a Comm,
// at most one per ordered pair of ranks and round.
type Mail[T any] struct {
	c             *Comm
	sent, inbox   []T // indexed from*p + to
	posted, ready []bool
}

// NewMail returns a mailbox for payloads of type T on c.
func NewMail[T any](c *Comm) *Mail[T] {
	p := c.Size()
	m := &Mail[T]{c: c, sent: make([]T, p*p), inbox: make([]T, p*p), posted: make([]bool, p*p), ready: make([]bool, p*p)}
	c.mails = append(c.mails, m)
	return m
}

// Post sends v from rank from to rank to; it can be taken in the next
// round. A message to another rank counts one message and bytes bytes
// on the sender; a message to itself counts nothing.
func (m *Mail[T]) Post(from, to int, v T, bytes int) {
	k := from*m.c.Size() + to
	if m.posted[k] {
		panic(fmt.Sprintf("par: rank %d posts a second %T to rank %d in one round", from, v, to))
	}
	m.sent[k], m.posted[k] = v, true
	if from == to {
		return
	}
	m.c.Msgs[from]++
	m.c.Bytes[from] += int64(bytes)
	obs.AddComm(obsRankEv, from, 1, int64(bytes))
	obsMsgSize.Observe(int64(bytes))
}

// Take returns the message rank from posted to rank to in the round
// before. It panics if there is none.
func (m *Mail[T]) Take(to, from int) T {
	k := from*m.c.Size() + to
	if !m.ready[k] {
		panic(fmt.Sprintf("par: rank %d takes a %T from rank %d, none was posted the round before", to, m.inbox[k], from))
	}
	v := m.inbox[k]
	var zero T
	m.inbox[k], m.ready[k] = zero, false
	return v
}

// endRound delivers the messages posted this round. Under check.Enabled,
// a message delivered at the start of the round and not taken in it
// panics; otherwise it is dropped.
func (m *Mail[T]) endRound() {
	if check.Enabled {
		p := m.c.Size()
		for k, left := range m.ready {
			if left {
				panic(fmt.Sprintf("par: rank %d posted a %T to rank %d, never taken", k/p, m.inbox[k], k%p))
			}
		}
	}
	m.sent, m.inbox = m.inbox, m.sent
	m.posted, m.ready = m.ready, m.posted
	clear(m.sent)
	clear(m.posted)
}
