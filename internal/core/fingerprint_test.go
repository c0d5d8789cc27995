package core

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"prometheus/internal/mesh"
)

// fpFixture builds a small deterministic mesh + constraint set for the
// fingerprint tests.
func fpFixture() (*mesh.Mesh, map[int]float64, Options) {
	m := mesh.StructuredHex(3, 3, 3, 1, 1, 1, nil)
	fixed := map[int]float64{0: 0, 1: 0, 2: 0, 5: 0.25, 9: -1.5}
	opts := Options{MinCoarse: 42, MaxLevels: 3}
	return m, fixed, opts
}

func TestFingerprintDeterministicInProcess(t *testing.T) {
	m, fixed, opts := fpFixture()
	a := Fingerprint(m, fixed, opts)
	b := Fingerprint(m, fixed, opts)
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length = %d, want 64 hex chars", len(a))
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	m, fixed, opts := fpFixture()
	base := Fingerprint(m, fixed, opts)

	t.Run("coordinate", func(t *testing.T) {
		m2, f2, o2 := fpFixture()
		m2.Coords[7].X += 1e-9
		if Fingerprint(m2, f2, o2) == base {
			t.Fatal("coordinate perturbation did not change fingerprint")
		}
	})
	t.Run("connectivity", func(t *testing.T) {
		m2, f2, o2 := fpFixture()
		m2.Elems[0][0], m2.Elems[0][1] = m2.Elems[0][1], m2.Elems[0][0]
		if Fingerprint(m2, f2, o2) == base {
			t.Fatal("connectivity permutation did not change fingerprint")
		}
	})
	t.Run("material", func(t *testing.T) {
		m2, f2, o2 := fpFixture()
		m2.Mat[3] = 7
		if Fingerprint(m2, f2, o2) == base {
			t.Fatal("material change did not change fingerprint")
		}
	})
	t.Run("constraint-value", func(t *testing.T) {
		m2, f2, o2 := fpFixture()
		f2[5] = 0.5
		if Fingerprint(m2, f2, o2) == base {
			t.Fatal("constraint value change did not change fingerprint")
		}
	})
	t.Run("constraint-set", func(t *testing.T) {
		m2, f2, o2 := fpFixture()
		f2[11] = 0
		if Fingerprint(m2, f2, o2) == base {
			t.Fatal("extra constraint did not change fingerprint")
		}
	})
	t.Run("options", func(t *testing.T) {
		m2, f2, o2 := fpFixture()
		o2.MinCoarse = 43
		if Fingerprint(m2, f2, o2) == base {
			t.Fatal("MinCoarse change did not change fingerprint")
		}
	})
	t.Run("signed-zero", func(t *testing.T) {
		m2, f2, o2 := fpFixture()
		f2[5] = 0.0
		m3, f3, o3 := fpFixture()
		f3[5] = negZero()
		if Fingerprint(m2, f2, o2) == Fingerprint(m3, f3, o3) {
			t.Fatal("-0.0 vs +0.0 constraint should change the bit-exact fingerprint")
		}
	})
}

// negZero returns -0.0 without tripping the float-equality style of
// constant folding in tests.
func negZero() float64 {
	z := 0.0
	return -z
}

// TestFingerprintCrossProcess pins the hash across two distinct process
// runs: map iteration order and ASLR change between processes, the
// fingerprint must not. The test re-executes the test binary as a helper
// that prints the fixture fingerprint, twice, and compares both outputs
// against the in-process value.
func TestFingerprintCrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	m, fixed, opts := fpFixture()
	want := Fingerprint(m, fixed, opts)
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run", "TestFingerprintHelperProcess", "-test.v")
		cmd.Env = append(os.Environ(), "PROMETHEUS_FP_HELPER=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("helper process run %d: %v\n%s", i, err, out)
		}
		got := ""
		for _, line := range strings.Split(string(out), "\n") {
			if h, ok := strings.CutPrefix(strings.TrimSpace(line), "FP="); ok {
				got = h
			}
		}
		if got == "" {
			t.Fatalf("helper process run %d printed no FP= line:\n%s", i, out)
		}
		if got != want {
			t.Fatalf("cross-process fingerprint mismatch on run %d:\n  in-process: %s\n  subprocess: %s", i, want, got)
		}
	}
}

// TestFingerprintHelperProcess is the subprocess side of the
// cross-process test; it only does work when re-exec'd with the env var.
func TestFingerprintHelperProcess(t *testing.T) {
	if os.Getenv("PROMETHEUS_FP_HELPER") != "1" {
		t.Skip("helper process only")
	}
	m, fixed, opts := fpFixture()
	fmt.Printf("FP=%s\n", Fingerprint(m, fixed, opts))
}
