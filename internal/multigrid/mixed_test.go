package multigrid

import (
	"math"
	"strings"
	"testing"

	"prometheus/internal/core"
	"prometheus/internal/krylov"
	"prometheus/internal/la"
	"prometheus/internal/sparse"
)

// TestMixedNarrowsCoarseLevels checks the structural contract of
// PrecisionMixedF32: the fine level keeps f64 storage (the krylov
// contract), every level at or above CoarseF32Level is narrowed, the
// coarse-level storage footprint drops by at least the 1.3x acceptance
// gate, and the narrowed hierarchy still solves to f64 tolerance.
func TestMixedNarrowsCoarseLevels(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 10})
	if len(rs) < 2 {
		t.Fatal("need an intermediate coarse level so the f32 smoother actually runs")
	}
	for _, tc := range []struct {
		name    string
		storage StorageKind
		narrow  func(sparse.Operator) bool
	}{
		{"csr", StorageCSR, func(a sparse.Operator) bool { _, ok := a.(*sparse.CSR32); return ok }},
		{"bsr", StorageBSR, func(a sparse.Operator) bool { _, ok := a.(*sparse.BSR32); return ok }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mixed, err := New(k, rs, Options{Storage: tc.storage, CoarsePrecision: PrecisionMixedF32})
			if err != nil {
				t.Fatal(err)
			}
			full, err := New(k, rs, Options{Storage: tc.storage})
			if err != nil {
				t.Fatal(err)
			}
			if tc.narrow(mixed.Levels[0].A) {
				t.Fatalf("fine level narrowed to %T; level 0 must stay f64", mixed.Levels[0].A)
			}
			var bytes64, bytes32 int64
			for l := 1; l < len(mixed.Levels); l++ {
				if !tc.narrow(mixed.Levels[l].A) {
					t.Fatalf("level %d is %T, want f32 storage", l, mixed.Levels[l].A)
				}
				bytes64 += sparse.StorageBytes(full.Levels[l].A)
				bytes32 += sparse.StorageBytes(mixed.Levels[l].A)
			}
			if ratio := float64(bytes64) / float64(bytes32); ratio < 1.3 {
				t.Fatalf("coarse-level bytes ratio %.2fx, want >= 1.3x (%d -> %d bytes)", ratio, bytes64, bytes32)
			}
			// The f32 coarse grids bound the convergence rate, not the attainable
			// accuracy: the f64 fine-level residual still reaches 1e-10.
			x := make([]float64, k.NRows)
			cycles, rel := mixed.Solve(f, x, 1e-10, 100)
			if rel > 1e-10 {
				t.Fatalf("mixed MG stalled: rel = %v after %d cycles", rel, cycles)
			}
		})
	}
}

// TestMixedCoarseF32LevelThreshold checks that narrowing honors the
// threshold: levels below CoarseF32Level keep f64 storage.
func TestMixedCoarseF32LevelThreshold(t *testing.T) {
	k, _, rs := buildElasticity(t, 4, core.Options{MinCoarse: 10})
	mg, err := New(k, rs, Options{CoarsePrecision: PrecisionMixedF32, CoarseF32Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mg.Levels) < 3 {
		t.Skipf("hierarchy too shallow (%d levels) to exercise the threshold", len(mg.Levels))
	}
	for l, lvl := range mg.Levels {
		// Smoothed Galerkin levels are blocked (BSR, BSR32 once narrowed);
		// the coarsest keeps the scalar matrix its factorization read.
		narrowed := strings.HasSuffix(storageName(lvl.A), "32")
		if want := l >= 2; narrowed != want {
			t.Fatalf("level %d is %s, narrowed=%v, want %v (threshold 2)", l, storageName(lvl.A), narrowed, want)
		}
	}
}

// TestMixedIterationDelta is the solver-level acceptance criterion: with
// the multigrid preconditioner's coarse levels narrowed to f32, FPCG on
// the elasticity cube must converge to 1e-8 within two extra iterations
// of the all-f64 preconditioner, on both the scalar and blocked
// pipelines (FPCG is flexible, so the slightly perturbed preconditioner
// costs at most a little contraction, never correctness).
func TestMixedIterationDelta(t *testing.T) {
	// MinCoarse 10 forces a 3-level hierarchy (540/81/24 dofs) so level 1
	// smooths on narrowed storage — with only two levels the coarsest f64
	// direct factor hides the narrowing entirely.
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 10})
	cases := []struct {
		name string
		opts Options
	}{
		{"csr", Options{Storage: StorageCSR}},
		{"bsr", Options{Storage: StorageBSR}},
		{"bsr-nodeblock", Options{Storage: StorageBSR, Smoother: NodeBlockJacobi}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgFull, err := New(k, rs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			optsMixed := tc.opts
			optsMixed.CoarsePrecision = PrecisionMixedF32
			mgMixed, err := New(k, rs, optsMixed)
			if err != nil {
				t.Fatal(err)
			}
			xFull := make([]float64, k.NRows)
			full := krylov.FPCG(k, f, xFull, mgFull, 1e-8, 200)
			if !full.Converged {
				t.Fatalf("f64 FPCG did not converge in %d its", full.Iterations)
			}
			xMixed := make([]float64, k.NRows)
			mixed := krylov.FPCG(k, f, xMixed, mgMixed, 1e-8, 200)
			if !mixed.Converged {
				t.Fatalf("mixed FPCG did not converge in %d its", mixed.Iterations)
			}
			if mixed.Iterations > full.Iterations+2 {
				t.Fatalf("mixed FPCG took %d its vs %d f64, beyond the +2 budget",
					mixed.Iterations, full.Iterations)
			}
			diff := 0.0
			for i := range xFull {
				if d := math.Abs(xFull[i] - xMixed[i]); d > diff {
					diff = d
				}
			}
			if diff > 1e-6*(1+la.MaxAbs(xFull)) {
				t.Fatalf("solutions diverge: max |x64 - xmixed| = %g", diff)
			}
			t.Logf("%s: f64 %d its, mixed %d its, max diff %.3g", tc.name, full.Iterations, mixed.Iterations, diff)
		})
	}
}

// TestPureF64ConfigBitwiseIdentical locks in the determinism acceptance
// criterion: requesting PrecisionF64 explicitly (at any threshold) is the
// same code path as the default — the preconditioner and therefore every
// FPCG iterate stay bitwise identical.
func TestPureF64ConfigBitwiseIdentical(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mgDefault, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgExplicit, err := New(k, rs, Options{CoarsePrecision: PrecisionF64, CoarseF32Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, k.NRows)
	r1 := krylov.FPCG(k, f, x1, mgDefault, 1e-8, 200)
	x2 := make([]float64, k.NRows)
	r2 := krylov.FPCG(k, f, x2, mgExplicit, 1e-8, 200)
	if r1.Iterations != r2.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", r1.Iterations, r2.Iterations)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("dof %d differs bitwise: %v vs %v", i, x1[i], x2[i])
		}
	}
}
