package lint

import "testing"

// syncDep is a minimal source-level stand-in for the sync package so
// fixtures can exercise mutex calls without export data.
var syncDep = fixtureDep{path: "sync", src: `package sync

type Mutex struct{ state int32 }

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}
`}

func fixtureSyncCompute() *SyncDiscipline {
	return &SyncDiscipline{Compute: []string{"fixture"}, Substrate: []string{"none"}}
}

func fixtureSyncSubstrate() *SyncDiscipline {
	return &SyncDiscipline{Compute: []string{"none"}, Substrate: []string{"fixture"}}
}

func TestSyncDisciplineComputeBansRawOps(t *testing.T) {
	pkg := checkFixtureWith(t, []fixtureDep{syncDep}, `package fixture

import "sync"

var mu sync.Mutex

// Smooth is a hot root: everything below runs per iteration.
func Smooth(x []float64, done chan int, n int) {
	for i := 0; i < n; i++ {
		mu.Lock() // line 10: sync call in compute
		x[i] = 0
		mu.Unlock() // line 12: sync call in compute
	}
	done <- n // line 14: channel send in compute
	<-done    // line 15: channel receive in compute
}

// cold is never reached from a hot root: raw ops are tolerated here.
func cold(done chan int) {
	done <- 1
}
`)
	got := fixtureSyncCompute().Check(pkg)
	if !sameLines(got, 10, 12, 14, 15) {
		t.Fatalf("got %v (lines %v), want lines [10 12 14 15]", got, lines(got))
	}
}

func TestSyncDisciplineSubstrateSanctions(t *testing.T) {
	pkg := checkFixture(t, `package fixture

type Pool struct {
	jobs chan int
	done chan struct{}
}

// Dispatch is a hot root and a method of a package-local type: its
// synchronization is the audited protocol surface.
func (p *Pool) Dispatch(n int) {
	for w := 0; w < n; w++ {
		p.jobs <- w // ok: method of local type
	}
	for w := 0; w < n; w++ {
		<-p.done // ok: method of local type
	}
}

// credit is a package-local bounded-token channel: its constant buffer
// is the synchronization budget, so hot ops on it are sanctioned.
var credit = make(chan struct{}, 4)

// Smooth is hot but a plain function: its ops need a credit channel.
func Smooth(p *Pool, raw chan int, n int) {
	for i := 0; i < n; i++ {
		credit <- struct{}{} // ok: buffered credit channel
		raw <- i             // line 27: unbuffered, not a method
		<-credit             // ok: buffered credit channel
	}
}
`)
	got := fixtureSyncSubstrate().Check(pkg)
	if !sameLines(got, 27) {
		t.Fatalf("got %v (lines %v), want line [27]", got, lines(got))
	}
}

func TestSyncDisciplineCheckGuardExempt(t *testing.T) {
	pkg := checkFixtureWith(t, []fixtureDep{
		{path: "prometheus/internal/check", src: `package check

const Enabled = true
`},
	}, `package fixture

import "prometheus/internal/check"

func Smooth(x []float64, trace chan int, n int) {
	for i := 0; i < n; i++ {
		if check.Enabled {
			trace <- i // ok: sanitizer bookkeeping is cold by definition
		}
		x[i] = 0
	}
}
`)
	got := fixtureSyncCompute().Check(pkg)
	if len(got) != 0 {
		t.Fatalf("check.Enabled block flagged: %v", got)
	}
}

func TestSyncDisciplineGoSpawnInCompute(t *testing.T) {
	pkg := checkFixture(t, `package fixture

func Smooth(x []float64, n int) {
	for i := 0; i < n; i++ {
		go step(x, i) // line 5: per-iteration goroutine spawn
	}
}

func step(x []float64, i int) { x[i] = 0 }
`)
	got := fixtureSyncCompute().Check(pkg)
	if !sameLines(got, 5) {
		t.Fatalf("got %v (lines %v), want line [5]", got, lines(got))
	}
}
