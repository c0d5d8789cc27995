package lint

import "testing"

// fakeCheck is the fixture stand-in for prometheus/internal/check, so
// fixtures can exercise the check.Enabled guard logic.
var fakeCheck = fixtureDep{path: "prometheus/internal/check", src: `package check

// Enabled gates the assertions.
const Enabled = true

// Assert asserts.
func Assert(cond bool, msg string, args ...interface{}) {}

// Sorted checks ordering.
func Sorted(xs []int, what string) {}
`}

func TestCheckGuard(t *testing.T) {
	pkg := checkFixtureWith(t, []fixtureDep{fakeCheck}, `package fixture

import "prometheus/internal/check"

func g(xs []int) {
	if check.Enabled {
		check.Assert(len(xs) > 0, "fixture: empty") // guarded: fine
	}
	if check.Enabled && len(xs) > 1 {
		check.Sorted(xs, "fixture") // conjoined guard: fine
	}
	check.Assert(true, "fixture: unguarded") // line 12: flagged
	if len(xs) > 0 {
		check.Sorted(xs, "fixture") // line 14: flagged (wrong guard)
	}
	//promlint:ignore check-guard fixture shows a justified suppression
	check.Sorted(xs, "fixture")
	_ = check.Enabled // bare constant reference: fine
}
`)
	kept, suppressed := RunAll([]*Package{pkg}, []Rule{CheckGuard{}})
	if !sameLines(kept, 12, 14) {
		t.Fatalf("check-guard fired on lines %v, want [12 14]\n%v", lines(kept), kept)
	}
	if len(suppressed) != 1 {
		t.Fatalf("suppression accounting: got %v, want one suppressed finding", suppressed)
	}
}
