package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	prometheus "prometheus"
	"prometheus/internal/multigrid"
)

// mgPoolCap is the compile-time capacity of each entry's idle-multigrid
// pool. Checked-in preconditioners beyond this are dropped (rebuilt on
// demand), so an entry can never hoard more than mgPoolCap solver states.
const mgPoolCap = 8

// cacheEntryCap is the compile-time ceiling on cached hierarchy entries;
// Config.MaxCacheEntries clamps to it.
const cacheEntryCap = 64

// cacheEntry is one cached setup product: everything a warm request can
// reuse, whatever its load scale — the solver (hierarchy + restrictions),
// the reduced operator, the load map that reduces a load against it, and
// a pool of ready leases. The entry is built exactly once (single-flight);
// concurrent first requests for the same key block on the build instead
// of duplicating it.
type cacheEntry struct {
	key string
	fp  string

	once sync.Once
	err  error

	solver *prometheus.Solver
	// kred is the reduced fine operator.
	kred prometheus.Operator
	// loads turns a request's load into kred's right-hand side.
	loads   *prometheus.LoadMap
	numDOF  int
	levels  int
	setupNs int64

	// mgs is the idle lease pool. A multigrid instance carries per-level
	// scratch vectors, so one instance must never serve two concurrent
	// solves; Checkout leases one, Checkin returns it.
	mgs    chan *lease
	builds atomic.Int64 // lifetime MG constructions (1 = never rebuilt)

	// refs and lastUse are guarded by the owning cache's mutex.
	refs    int
	lastUse uint64
}

// errBuildPanicked is what the requests waiting on a single-flight build
// are told when the build panicked on the request that ran it.
var errBuildPanicked = errors.New("serve: the setup this request was waiting on panicked")

// lease is one solve's exclusive state on an entry: a multigrid
// preconditioner and the reduced right-hand side the request writes its
// load into.
type lease struct {
	mg   *multigrid.MG
	fred []float64
}

// build runs the cold-path setup: coarsening, assembly, constraint
// reduction, the load map and the first multigrid construction. It runs
// to completion even if the requesting client goes away — the product is
// shared state, and a half-built entry poisoned by one caller's
// cancellation would break every later request for the key.
func (e *cacheEntry) build(g *Geometry, opts prometheus.Options) error {
	t0 := time.Now()
	solver, err := prometheus.NewSolver(g.Mesh, g.Cons, opts)
	if err != nil {
		return err
	}
	// No right-hand side is built here: each request writes its own load
	// through the map.
	kred, loads, err := solver.LinearOperator(prometheus.NewProblem(g.Mesh, g.Models, false))
	if err != nil {
		return err
	}
	mg, err := solver.Preconditioner(kred)
	if err != nil {
		return err
	}
	e.solver = solver
	e.kred = kred
	e.loads = loads
	e.numDOF = g.Mesh.NumDOF()
	e.levels = mg.NumLevels()
	e.setupNs = time.Since(t0).Nanoseconds()
	e.builds.Add(1)
	e.Checkin(&lease{mg: mg, fred: make([]float64, kred.Rows())})
	return nil
}

// Checkout leases a preconditioner and a right-hand side from the idle
// pool, building a fresh pair when the pool is empty (concurrent solves
// on one entry). Never blocks. Pair with Checkin on all paths.
func (e *cacheEntry) Checkout() (*lease, error) {
	select {
	case l := <-e.mgs:
		return l, nil
	default:
	}
	mg, err := e.solver.Preconditioner(e.kred)
	if err != nil {
		return nil, err
	}
	e.builds.Add(1)
	return &lease{mg: mg, fred: make([]float64, e.kred.Rows())}, nil
}

// Checkin returns a lease to the idle pool; a full pool drops it (the
// next checkout past mgPoolCap concurrent solves rebuilds).
func (e *cacheEntry) Checkin(l *lease) {
	select {
	case e.mgs <- l:
	default:
	}
}

// EntryInfo is the JSON view of one cache entry for /v1/cache.
type EntryInfo struct {
	// Key is the full cache key (fingerprint/cycle/storage); one entry
	// serves every load scale.
	Key string `json:"key"`
	// Fingerprint is the mesh fingerprint component of the key.
	Fingerprint string `json:"fingerprint"`
	// NumDOF is the fine-grid dof count of the cached system.
	NumDOF int `json:"num_dof"`
	// Levels is the multigrid level count.
	Levels int `json:"levels"`
	// SetupNs is the cold setup cost the entry saves per warm hit.
	SetupNs int64 `json:"setup_ns"`
	// IdleMGs is the current idle preconditioner pool depth.
	IdleMGs int `json:"idle_mgs"`
	// Builds counts lifetime multigrid constructions for the entry.
	Builds int64 `json:"builds"`
	// Refs is the number of requests currently using the entry.
	Refs int `json:"refs"`
}

// hierCache maps cache keys to setup products. Lookups are O(1) under
// one mutex; the heavy build runs outside the lock, single-flighted per
// entry. Eviction is LRU over unreferenced entries, by logical clock (no
// wall-time dependence).
type hierCache struct {
	mu        sync.Mutex
	max       int
	clock     uint64
	entries   map[string]*cacheEntry
	hits      int64
	misses    int64
	evictions int64
}

func newHierCache(maxEntries int) *hierCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if maxEntries > cacheEntryCap {
		maxEntries = cacheEntryCap
	}
	return &hierCache{max: maxEntries, entries: make(map[string]*cacheEntry)}
}

// Acquire returns the entry for key, building it (single-flight) on a
// miss. hit reports whether the setup products already existed. A nil
// error guarantees a usable entry the caller must Release on all paths;
// on error the reference is already released. A build that panics is a
// failed build: the panic unwinds through the request that ran it, with
// its reference released and the key dropped on the way, and the requests
// waiting on it get errBuildPanicked.
func (c *hierCache) Acquire(key, fp string, g *Geometry, opts prometheus.Options) (e *cacheEntry, hit bool, err error) {
	c.mu.Lock()
	e, hit = c.entries[key]
	if !hit {
		e = &cacheEntry{key: key, fp: fp, mgs: make(chan *lease, mgPoolCap)}
		c.entries[key] = e
		c.misses++
		mCacheMisses.Inc()
	} else {
		c.hits++
		mCacheHits.Inc()
	}
	e.refs++
	c.clock++
	e.lastUse = c.clock
	if !hit {
		// Evict only after the new entry is pinned, so it can never be
		// its own victim.
		c.evictLocked()
	}
	c.mu.Unlock()

	// The named result e is nil again by the time a deferred function runs
	// on the error return, so the cleanup holds the entry itself.
	ok, pinned := false, e
	defer func() {
		if !ok { // a failed build, or a panicking one unwinding through here
			c.Release(pinned)
			c.dropFailed(pinned)
		}
	}()
	e.once.Do(func() {
		e.err = errBuildPanicked // what the waiters read if build does not return
		e.err = e.build(g, opts)
	})
	if e.err != nil {
		return nil, false, e.err
	}
	ok = true
	return e, hit, nil
}

// dropFailed removes a failed-build entry from the map once unreferenced,
// so a transient build error does not poison its key forever.
func (c *hierCache) dropFailed(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[e.key]; ok && cur == e && e.refs == 0 {
		delete(c.entries, e.key)
	}
}

// Release drops one reference taken by Acquire.
func (c *hierCache) Release(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.refs--
	if e.refs < 0 {
		panic("serve: cache release without a matching acquire")
	}
}

// evictLocked removes least-recently-used unreferenced entries while the
// cache exceeds its limit. Entries pinned by in-flight requests are never
// evicted, so the map can transiently exceed max by the admission limit.
func (c *hierCache) evictLocked() {
	for len(c.entries) > c.max {
		var victim *cacheEntry
		for _, e := range c.entries {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.key)
		c.evictions++
		mCacheEvict.Inc()
	}
}

// sweep is the janitor hook: it re-applies the eviction policy (entries
// pinned at insert time may have become evictable since).
func (c *hierCache) sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
}

// snapshot lists entries (sorted by key) plus hit/miss/eviction totals.
func (c *hierCache) snapshot() (infos []EntryInfo, hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		info := EntryInfo{
			Key:         e.key,
			Fingerprint: e.fp,
			NumDOF:      e.numDOF,
			Levels:      e.levels,
			SetupNs:     e.setupNs,
			IdleMGs:     len(e.mgs),
			Builds:      e.builds.Load(),
			Refs:        e.refs,
		}
		infos = append(infos, info)
	}
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].Key < infos[j-1].Key; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	return infos, c.hits, c.misses, c.evictions
}
