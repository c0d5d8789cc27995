package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	prometheus "prometheus"
)

func TestAdmissionSemaphore(t *testing.T) {
	a := newAdmission(2)
	ctx := context.Background()
	if err := a.Acquire(ctx, false); err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	if err := a.Acquire(ctx, false); err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if err := a.Acquire(ctx, false); !errors.Is(err, ErrBusy) {
		t.Fatalf("acquire 3 = %v, want ErrBusy", err)
	}
	a.Release()
	if err := a.Acquire(ctx, false); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := a.Acquire(cctx, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting acquire on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestAdmissionReleaseWithoutAcquirePanics(t *testing.T) {
	a := newAdmission(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unpaired Release did not panic")
		}
	}()
	a.Release()
}

func TestAdmissionClampsToCap(t *testing.T) {
	a := newAdmission(admissionCap + 100)
	ctx := context.Background()
	for i := 0; i < admissionCap; i++ {
		if err := a.Acquire(ctx, false); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if err := a.Acquire(ctx, false); !errors.Is(err, ErrBusy) {
		t.Fatalf("acquire past cap = %v, want ErrBusy", err)
	}
}

func TestSessionManager(t *testing.T) {
	m := newSessionManager()
	s1 := m.Checkout("cube", 1, nil)
	s2 := m.Checkout("cantilever", 2, nil)
	s1.setKey("k1")
	live, total, _ := m.snapshot()
	if len(live) != 2 || total != 2 {
		t.Fatalf("live %d total %d, want 2/2", len(live), total)
	}
	if live[0].ID != s1.id || live[1].ID != s2.id {
		t.Fatalf("snapshot not id-ordered: %+v", live)
	}
	if live[0].Key != "k1" {
		t.Fatalf("session key not recorded: %+v", live[0])
	}
	m.Checkin(s1)
	m.Checkin(s2)
	live, total, longest := m.snapshot()
	if len(live) != 0 || total != 2 || longest <= 0 {
		t.Fatalf("after checkin: live %d total %d longest %v", len(live), total, longest)
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	c := newHierCache(2)
	opts := prometheus.Options{}
	specs := []Spec{
		{Problem: "cube", Size: 1},
		{Problem: "cantilever", Size: 1},
		{Problem: "cube", Size: 2},
	}
	keys := make([]string, len(specs))
	for i, sp := range specs {
		g, err := BuildGeometry(sp)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = g.Fingerprint(opts.Coarsen)
		e, hit, err := c.Acquire(keys[i], g, opts)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if hit {
			t.Fatalf("acquire %d reported hit on first use", i)
		}
		c.Release(e)
	}
	infos, hits, misses, _ := c.snapshot()
	if len(infos) != 2 {
		t.Fatalf("cache holds %d entries, want 2 after eviction", len(infos))
	}
	if hits != 0 || misses != 3 {
		t.Fatalf("hits %d misses %d, want 0/3", hits, misses)
	}
	// The oldest entry (specs[0]) must be the evicted one.
	for _, info := range infos {
		if info.Key == keys[0] {
			t.Fatalf("LRU entry %s survived eviction", keys[0])
		}
	}
	// Re-acquiring the survivor is a hit.
	g, err := BuildGeometry(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	e, hit, err := c.Acquire(keys[1], g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("survivor entry re-acquire missed")
	}
	c.Release(e)
}

func TestCachePinnedEntryNotEvicted(t *testing.T) {
	c := newHierCache(1)
	opts := prometheus.Options{}
	g1, err := BuildGeometry(Spec{Problem: "cube", Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	e1, _, err := c.Acquire(g1.Fingerprint(opts.Coarsen), g1, opts)
	if err != nil {
		t.Fatal(err)
	}
	// e1 still referenced: inserting a second entry must not evict it.
	g2, err := BuildGeometry(Spec{Problem: "cantilever", Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := c.Acquire(g2.Fingerprint(opts.Coarsen), g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	infos, _, _, _ := c.snapshot()
	if len(infos) != 2 {
		t.Fatalf("pinned entry evicted: %d entries", len(infos))
	}
	c.Release(e1)
	c.Release(e2)
	c.sweep()
	infos, _, _, _ = c.snapshot()
	if len(infos) != 1 {
		t.Fatalf("sweep kept %d entries, want 1", len(infos))
	}
}

// TestCacheKeyDistinguishesVariants is the cache-correctness regression
// test for the key derivation: the only request parameters that change the
// cached setup products select the geometry, so the key a reply reports is
// the geometry's fingerprint, and two geometries get two keys. The storage
// is read from the operator and the cycle is always FMG, so no request
// parameter selects either. The load scale changes none of the setup
// products, so two scales of one geometry must share a key.
func TestCacheKeyDistinguishesVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := Spec{Problem: "cube", Size: 1}
	g, err := BuildGeometry(spec)
	if err != nil {
		t.Fatal(err)
	}
	one := postSolve(t, ts, SolveRequest{Spec: spec, LoadScale: 1})
	if want := g.Fingerprint(prometheus.Options{}.Coarsen); one.Key != want {
		t.Fatalf("cache key %s, want the fingerprint %s", one.Key, want)
	}
	// Two load scales of one spec resolve to one key, and the second hits.
	two := postSolve(t, ts, SolveRequest{Spec: spec, LoadScale: 2})
	if one.Key != two.Key || !two.CacheHit {
		t.Fatalf("load scales 1 and 2: keys %s and %s, second cache_hit %v; want one key and a hit", one.Key, two.Key, two.CacheHit)
	}
	if other := postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cantilever", Size: 1}}); other.Key == one.Key || other.CacheHit {
		t.Fatalf("cube and cantilever share key %s (cache_hit %v)", one.Key, other.CacheHit)
	}
}

func TestMGLeasePool(t *testing.T) {
	c := newHierCache(1)
	opts := prometheus.Options{}
	g, err := BuildGeometry(Spec{Problem: "cube", Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := c.Acquire(g.Fingerprint(opts.Coarsen), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(e)

	mg1, err := e.Checkout()
	if err != nil {
		t.Fatal(err)
	}
	if e.builds.Load() != 1 {
		t.Fatalf("builds = %d after pool checkout, want 1 (the build-time instance)", e.builds.Load())
	}
	// Pool empty now: a second checkout constructs a fresh instance.
	mg2, err := e.Checkout()
	if err != nil {
		t.Fatal(err)
	}
	if mg1 == mg2 {
		t.Fatal("concurrent checkouts returned the same multigrid instance")
	}
	if e.builds.Load() != 2 {
		t.Fatalf("builds = %d after empty-pool checkout, want 2", e.builds.Load())
	}
	e.Checkin(mg1)
	e.Checkin(mg2)
	// Both instances idle: the next checkout reuses, no new build.
	mg3, err := e.Checkout()
	if err != nil {
		t.Fatal(err)
	}
	e.Checkin(mg3)
	if e.builds.Load() != 2 {
		t.Fatalf("builds = %d after warm checkout, want 2", e.builds.Load())
	}

	// A full pool drops a returned lease instead of blocking the request
	// that returns it.
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for i := 0; i <= mgPoolCap; i++ {
			e.Checkin(&lease{})
		}
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Checkin into a full lease pool blocked instead of dropping the lease")
	}
	if idle := len(e.mgs); idle != mgPoolCap {
		t.Fatalf("idle pool holds %d leases, want mgPoolCap = %d", idle, mgPoolCap)
	}
}

// TestSolverOptionsValidation: DirectSolve's cycle, storage and precision
// parameters outlive the options they selected only for bench/'s sake;
// anything but the default errors before any work is done, and the
// defaults solve.
func TestSolverOptionsValidation(t *testing.T) {
	spec := Spec{Problem: "cube", Size: 1}
	for _, bad := range []struct{ cycle, storage, precision string }{
		{"v", "", ""}, {"w", "", ""}, {"spiral", "", ""},
		{"fmg", "bsr", ""},
		{"fmg", "", "f32"},
	} {
		if _, _, err := DirectSolve(spec, 1, 1e-4, 100, bad.cycle, bad.storage, bad.precision); err == nil {
			t.Fatalf("DirectSolve accepted cycle %q, storage %q, precision %q", bad.cycle, bad.storage, bad.precision)
		}
	}
	for _, cyc := range []string{"", "fmg"} {
		if _, res, err := DirectSolve(spec, 1, 1e-4, 100, cyc, "auto", "f64"); err != nil || !res.Converged {
			t.Fatalf("DirectSolve with cycle %q: %v", cyc, err)
		}
	}
}

func TestGeometryFingerprintStable(t *testing.T) {
	spec := Spec{Problem: "cube", Size: 1}
	g1, err := BuildGeometry(spec)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGeometry(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := prometheus.Options{}
	if g1.Fingerprint(opts.Coarsen) != g2.Fingerprint(opts.Coarsen) {
		t.Fatal("two builds of one spec fingerprint differently")
	}
	g3, err := BuildGeometry(Spec{Problem: "cube", Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint(opts.Coarsen) == g3.Fingerprint(opts.Coarsen) {
		t.Fatal("different sizes share a fingerprint")
	}
}
