package serve

import (
	"sync"
	"time"

	"prometheus/internal/obs"
)

// SessionInfo is the JSON view of one solve session, live or summarized
// in the /v1/sessions listing.
type SessionInfo struct {
	// ID is the monotonically increasing session id.
	ID uint64 `json:"id"`
	// Problem is the request's problem kind.
	Problem string `json:"problem"`
	// Size is the request's refinement parameter.
	Size int `json:"size"`
	// Key is the cache key (the geometry's fingerprint) the session
	// resolved to; empty until the spec has been fingerprinted.
	Key string `json:"key,omitempty"`
	// StartUnixNs is the wall-clock start of the session.
	StartUnixNs int64 `json:"start_unix_ns"`
	// AgeNs is the session age at snapshot time.
	AgeNs int64 `json:"age_ns"`
	// TraceID is the request's W3C trace id.
	TraceID string `json:"trace_id,omitempty"`
}

// session is one checked-out solve in flight.
type session struct {
	id      uint64
	problem string
	size    int
	start   time.Time
	task    *obs.Task

	mu  sync.Mutex
	key string
}

// setKey records the resolved cache key once the spec is fingerprinted.
func (s *session) setKey(key string) {
	s.mu.Lock()
	s.key = key
	s.mu.Unlock()
}

// info snapshots the session for the listing endpoint.
func (s *session) info(now time.Time) SessionInfo {
	s.mu.Lock()
	key := s.key
	s.mu.Unlock()
	return SessionInfo{
		ID:          s.id,
		Problem:     s.problem,
		Size:        s.size,
		Key:         key,
		StartUnixNs: s.start.UnixNano(),
		AgeNs:       now.Sub(s.start).Nanoseconds(),
		TraceID:     s.task.TraceID(),
	}
}

// sessionManager tracks solves in flight. Checkout registers a session,
// Checkin retires it; TestHandleSolveClosesTheBooks holds the handler to
// the pair on every exit.
// recentSessionsCap is the compile-time capacity of the retired-session
// ring kept for the per-request trace endpoint: a completed solve's
// trace stays fetchable until recentSessionsCap later solves retire.
const recentSessionsCap = 64

type sessionManager struct {
	mu        sync.Mutex
	next      uint64
	active    map[uint64]*session
	recent    [recentSessionsCap]*session
	recentPos int
	total     uint64
	longest   time.Duration
}

func newSessionManager() *sessionManager {
	return &sessionManager{active: make(map[uint64]*session)}
}

// Checkout registers a new in-flight session attributed to the given
// request task (may be nil outside the instrumented handler path).
func (m *sessionManager) Checkout(problem string, size int, task *obs.Task) *session {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.next++
	m.total++
	s := &session{id: m.next, problem: problem, size: size, start: time.Now(), task: task}
	m.active[s.id] = s
	return s
}

// Checkin retires a session returned by Checkout.
func (m *sessionManager) Checkin(s *session) {
	d := time.Since(s.start)
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, s.id)
	m.recent[m.recentPos] = s
	m.recentPos = (m.recentPos + 1) % recentSessionsCap
	if d > m.longest {
		m.longest = d
	}
}

// lookup finds a session by id among the in-flight set and the recent
// ring, for the per-request trace endpoint.
func (m *sessionManager) lookup(id uint64) (*session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.active[id]; ok {
		return s, true
	}
	for _, s := range m.recent {
		if s != nil && s.id == id {
			return s, true
		}
	}
	return nil, false
}

// snapshot returns the live sessions (ordered by id) plus lifetime stats.
func (m *sessionManager) snapshot() (live []SessionInfo, total uint64, longest time.Duration) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.active {
		live = append(live, s.info(now))
	}
	// Insertion sort by id: the active set is small (≤ admission limit).
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].ID < live[j-1].ID; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	return live, m.total, m.longest
}
