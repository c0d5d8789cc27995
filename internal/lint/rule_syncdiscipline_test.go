package lint

import "testing"

// syncDep is a minimal source-level stand-in for the sync package so
// fixtures can exercise mutex calls without export data.
var syncDep = fixtureDep{path: "sync", src: `package sync

type Mutex struct{ state int32 }

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}
`}

func TestSyncDisciplineComputeBansRawOps(t *testing.T) {
	pkg := checkFixtureWith(t, []fixtureDep{syncDep}, `package fixture

import "sync"

var mu sync.Mutex // line 5: sync use

func Smooth(x []float64, done chan int, n int) { // line 7: channel type
	for i := 0; i < n; i++ {
		mu.Lock() // line 9: sync use
		x[i] = 0
		mu.Unlock() // line 11: sync use
	}
	done <- n // line 13: channel send
	<-done    // line 14: channel receive
}

// setup runs once per solve, not per iteration: the ban covers it all the same.
func setup(done chan int) { // line 18: channel type
	select { // line 19: select
	case done <- 1: // line 20: channel send
	default:
	}
	for range done { // line 23: range over a channel
	}
	close(done) // line 25: channel close
}
`)
	got := SyncDiscipline{Compute: []string{"fixture"}}.Check(pkg)
	if !sameLines(got, 5, 7, 9, 11, 13, 14, 18, 19, 20, 23, 25) {
		t.Fatalf("got %v (lines %v), want lines [5 7 9 11 13 14 18 19 20 23 25]", got, lines(got))
	}

	// The default set is every compute package and its sub-packages, and
	// nothing else: the substrate (pool, par) synchronizes by design.
	for _, tc := range []struct {
		path   string
		banned bool
	}{
		{"prometheus/internal/sparse", true},
		{"prometheus/internal/la", true},
		{"prometheus/internal/fem", true},
		{"prometheus/internal/smooth", true},
		{"prometheus/internal/krylov", true},
		{"prometheus/internal/multigrid", true},
		{"prometheus/internal/core", true},
		{"prometheus/internal/delaunay", true},
		{"prometheus/internal/graph", true},
		{"prometheus/internal/mesh", true},
		{"prometheus/internal/topo", true},
		{"prometheus/internal/fem/sub", true},
		{"prometheus/internal/lattice", false},
		{"prometheus/internal/pool", false},
		{"prometheus/internal/par", true},
		{"prometheus/internal/serve", false},
	} {
		pkg.Path = tc.path
		if got := (SyncDiscipline{}).Check(pkg); (len(got) > 0) != tc.banned {
			t.Errorf("%s: %d findings, want banned = %v", tc.path, len(got), tc.banned)
		}
	}
}

func TestSyncDisciplineGoSpawnInCompute(t *testing.T) {
	pkg := checkFixture(t, `package fixture

func Smooth(x []float64, n int) {
	for i := 0; i < n; i++ {
		go step(x, i) // line 5: goroutine spawn
	}
}

func step(x []float64, i int) { x[i] = 0 }
`)
	got := SyncDiscipline{Compute: []string{"fixture"}}.Check(pkg)
	if !sameLines(got, 5) {
		t.Fatalf("got %v (lines %v), want line [5]", got, lines(got))
	}
}
