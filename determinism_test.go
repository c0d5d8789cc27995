package prometheus

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"prometheus/internal/obs"
	"prometheus/internal/problems"
)

// spheresOutcome is everything a cold build and solve of the small
// sphere-in-cube problem decides: the hierarchy's shape and, bit for bit,
// the residual history and the solution.
type spheresOutcome struct {
	levels    int
	counts    []int
	residuals []uint64
	solution  []uint64
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// solveSpheres builds and solves the problem from nothing: 1 536 dofs,
// 96 k stored entries on the fine level, so its fine-level products, block
// solves, block factorizations and element integration are all above
// pool.Grain and run on the shared worker set when there is one.
func solveSpheres() (spheresOutcome, error) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	solver, err := NewSolver(s.Mesh, s.Cons, Options{RTol: 1e-8})
	if err != nil {
		return spheresOutcome{}, err
	}
	p := NewProblem(s.Mesh, s.Models, true)
	k, _, err := p.AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		return spheresOutcome{}, err
	}
	// Zero loads: the RHS comes entirely from the prescribed crush
	// displacements in the problem's constraint set.
	u, res, err := solver.SolveLinear(k, make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		return spheresOutcome{}, err
	}
	counts, _ := solver.VertexReduction()
	return spheresOutcome{
		levels:    solver.NumLevels(),
		counts:    counts,
		residuals: floatBits(res.Residuals),
		solution:  floatBits(u),
	}, nil
}

func mustSolveSpheres(t *testing.T) spheresOutcome {
	t.Helper()
	out, err := solveSpheres()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSame fails the test at the first place b differs from a.
func (a spheresOutcome) requireSame(t *testing.T, b spheresOutcome, what string) {
	t.Helper()
	if a.levels != b.levels {
		t.Fatalf("%s: level counts differ: %d vs %d", what, a.levels, b.levels)
	}
	if !slices.Equal(a.counts, b.counts) {
		t.Fatalf("%s: coarse-grid sizes diverge: %v vs %v", what, a.counts, b.counts)
	}
	if len(a.residuals) != len(b.residuals) {
		t.Fatalf("%s: residual histories have different lengths: %d vs %d", what, len(a.residuals), len(b.residuals))
	}
	for i := range a.residuals {
		if a.residuals[i] != b.residuals[i] {
			t.Fatalf("%s: residual history diverges at iteration %d (bitwise)", what, i)
		}
	}
	for i := range a.solution {
		if a.solution[i] != b.solution[i] {
			t.Fatalf("%s: solution diverges at dof %d (bitwise)", what, i)
		}
	}
}

// hash folds the residual history and the solution into one FNV-1a word.
func (a spheresOutcome) hash() uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, bits := range [][]uint64{a.residuals, a.solution} {
		for _, b := range bits {
			binary.LittleEndian.PutUint64(w[:], b)
			h.Write(w[:])
		}
	}
	return h.Sum64()
}

// TestSolverDeterminismSpheres is the regression oracle for the map-order
// lint rule: two cold builds of the sphere-in-cube hierarchy must produce
// bit-identical coarse-grid sizes and residual histories. Any map-ordered
// iteration that leaks into the coarsening pipeline (MIS ordering, face
// classification, Delaunay inputs, graph adjacency) shows up here as a
// diverging vertex count or residual.
func TestSolverDeterminismSpheres(t *testing.T) {
	a, b := mustSolveSpheres(t), mustSolveSpheres(t)
	a.requireSame(t, b, "two cold runs")
	if a.levels < 2 {
		t.Fatalf("spheres problem did not coarsen: %d levels", a.levels)
	}
}

// spheresHashSerial is spheresOutcome.hash of the solve at the commit
// before the shared worker set existed (480d5c8), where every solve ran on
// one core: the pooled runtime may not move a bit of it. The word is
// amd64's: where the compiler fuses s += v*x into one rounding (arm64,
// ppc64le, s390x) the same deterministic solve ends on other bits, and
// the in-process comparison across GOMAXPROCS is the whole test.
const spheresHashSerial = 0xd1e6f3a2158bbb3c

// TestSolverDeterminismAcrossGOMAXPROCS: the shared worker set follows
// GOMAXPROCS — no helper on one core, one on two, three on four (more
// than this host may have: chunks are drawn, not assigned) — and who ran
// which rows moves no bit: residual history and solution are identical on
// all three, and to the one-core solver this runtime replaced.
func TestSolverDeterminismAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	obs.Enable()
	defer obs.Disable()
	var first spheresOutcome
	for i, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		before := obs.Snapshot().Counter("pool.dispatch.pooled")
		got := mustSolveSpheres(t)
		pooled := obs.Snapshot().Counter("pool.dispatch.pooled") - before
		if (procs > 1) != (pooled > 0) {
			t.Fatalf("GOMAXPROCS=%d: %d pooled dispatches", procs, pooled)
		}
		if i == 0 {
			first = got
			if h := got.hash(); runtime.GOARCH != "amd64" {
				t.Logf("GOMAXPROCS=1: outcome hash %#x on %s (not compared: the recorded one is amd64's)", h, runtime.GOARCH)
			} else if h != spheresHashSerial {
				t.Fatalf("GOMAXPROCS=1: outcome hash %#x, the one-core solver's is %#x", h, uint64(spheresHashSerial))
			}
			continue
		}
		first.requireSame(t, got, fmt.Sprintf("GOMAXPROCS=1 vs %d", procs))
	}
}

// atLeastTwoProcs gives the rest of the test a shared worker set with a
// helper in it, whatever the host has.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestConcurrentSolvesShareTheSet: two goroutines solving at once through
// the one shared worker set. Whoever finds the helpers taken runs its
// operation on its own core instead of waiting, so neither solve blocks on
// the other, and both end on the serial bits. Run under -race this is also
// the test that two dispatchers and the helpers share nothing unguarded.
func TestConcurrentSolvesShareTheSet(t *testing.T) {
	atLeastTwoProcs(t)
	obs.Enable()
	defer obs.Disable()
	want := mustSolveSpheres(t)
	var wg sync.WaitGroup
	got := make([]spheresOutcome, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = solveSpheres()
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("two concurrent solves did not finish: one is waiting on the other")
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want.requireSame(t, got[i], fmt.Sprintf("concurrent solve %d vs the solve alone", i))
	}
	prof := obs.Snapshot()
	t.Logf("pooled %d, serial below the grain %d, serial beside a busy set %d",
		prof.Counter("pool.dispatch.pooled"), prof.Counter("pool.dispatch.serial_grain"), prof.Counter("pool.dispatch.serial_busy"))
}

// TestSolverDeterminismObsEnabled asserts the observability subsystem
// is purely passive: a solve with obs recording produces the bitwise
// identical solution, residual history and iteration count as a solve
// without it. Any obs call that perturbs the numerics (reordering,
// extra work on a measured value, a stray float in a kernel) diverges
// here.
func TestSolverDeterminismObsEnabled(t *testing.T) {
	obs.Disable()
	off := mustSolveSpheres(t)
	obs.Enable()
	defer obs.Disable()
	on := mustSolveSpheres(t)
	off.requireSame(t, on, "without obs vs with")

	// The recording run must actually have recorded the solve.
	prof := obs.Snapshot()
	if _, ok := prof.Event("krylov.fpcg"); !ok {
		t.Fatal("obs-enabled solve recorded no krylov.fpcg event")
	}
	if prof.Counter("krylov.iterations") == 0 {
		t.Fatal("obs-enabled solve recorded no iterations")
	}
}
