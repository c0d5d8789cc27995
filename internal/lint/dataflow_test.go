package lint

import (
	"strings"
	"testing"
)

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

func TestHotLoopAllocRegions(t *testing.T) {
	pkg := checkFixtureWith(t, []fixtureDep{fakeCheck}, `package fixture

import "prometheus/internal/check"

type op struct {
	buf []float64
}

func (o *op) MulVec(x, y []float64) {
	t := make([]float64, len(x)) // line 10: flagged (alloc in a hot root)
	copy(y, t)
	o.helper(y)
	if check.Enabled {
		dbg := make([]float64, 1) // debug guard: exempt
		_ = dbg
	}
	//promlint:ignore hotloop-alloc fixture shows a justified suppression
	s := make([]float64, 1)
	_ = s
}

func (o *op) helper(y []float64) {
	o.buf = append(o.buf, y[0]) // append into hoisted state: fine
	m := map[int]int{}          // line 24: flagged (hot via same-package call)
	_ = m
}

func setup(n int) []float64 {
	return make([]float64, n) // constructor: cold, fine
}

func driver(o *op, x, y []float64) {
	w := setup(len(x)) // cold: fine
	for i := 0; i < 3; i++ {
		o.MulVec(x, y)
		z := make([]float64, 1) // line 36: flagged (loop promoted hot)
		_ = z
	}
	_ = w
}
`)
	rule := HotLoopAlloc{Kernels: []string{"fixture"}}
	kept, suppressed := RunAll([]*Package{pkg}, []Rule{rule})
	if !sameLines(kept, 10, 24, 36) {
		t.Fatalf("hotloop-alloc fired on lines %v, want [10 24 36]\n%v", lines(kept), kept)
	}
	if len(suppressed) != 1 || suppressed[0].Pos.Line != 18 {
		t.Fatalf("suppression accounting: got %v, want one suppressed finding on line 18", suppressed)
	}
}

func TestHotLoopAllocBoxingAndClosures(t *testing.T) {
	src := `package fixture

func sink(v interface{}) {}

type pair struct{ a, b int }

func Smooth(x []float64, p *pair, name string) {
	sink(x)        // line 8: flagged (slice boxed into interface)
	sink(p)        // pointer payload: fine
	sink(3)        // constant: staticized, fine
	f := func() {} // line 11: flagged (closure creation)
	f()
	msg := name + "!" // line 13: flagged (string concatenation)
	_ = msg
	y := &pair{1, 2} // line 15: flagged (escaping composite literal)
	_ = y
	sink(y) // pointer: fine
}
`
	pkg := checkFixture(t, src)
	rule := HotLoopAlloc{Kernels: []string{"fixture"}}
	got := Run([]*Package{pkg}, []Rule{rule})
	if !sameLines(got, 8, 11, 13, 15) {
		t.Fatalf("hotloop-alloc fired on lines %v, want [8 11 13 15]\n%v", lines(got), got)
	}

	// The same package outside the kernel set is exempt.
	cold := HotLoopAlloc{Kernels: []string{"elsewhere"}}
	if got := Run([]*Package{pkg}, []Rule{cold}); len(got) != 0 {
		t.Fatalf("rule must not fire outside the kernel set, got %v", got)
	}
}

func TestHotLoopAllocRankClosure(t *testing.T) {
	// A hot loop inside an anonymous rank body (the comm.Run pattern):
	// the loop is promoted because it calls a hot root, and buffers
	// hoisted to just outside the loop stay legal.
	pkg := checkFixture(t, `package fixture

func Barrier() {}

func run(fn func(id int)) { fn(0) }

func drive() {
	run(func(id int) {
		buf := make([]int, 0, 8) // outside the loop: cold, fine
		for {
			Barrier()
			buf = append(buf, id)        // append into cold-declared buffer: fine
			tmp := make([]int, 1)        // line 13: flagged
			local := append(tmp, id)     // line 14: flagged (grows hot-declared tmp)
			_ = local
			if id > len(buf) {
				break
			}
		}
	})
}
`)
	rule := HotLoopAlloc{Kernels: []string{"fixture"}}
	got := Run([]*Package{pkg}, []Rule{rule})
	if !sameLines(got, 13, 14) {
		t.Fatalf("hotloop-alloc fired on lines %v, want [13 14]\n%v", lines(got), got)
	}
}

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

func TestUncheckedErrorDeferGo(t *testing.T) {
	pkg := checkFixture(t, `package fixture

import "fmt"

func mayFail() error { return nil }
func pure() int      { return 0 }

func caller() {
	defer mayFail()                  // line 9: flagged
	go mayFail()                     // line 10: flagged
	defer func() { _ = mayFail() }() // wrapper handles it: fine
	go func() { _ = mayFail() }()    // wrapper handles it: fine
	defer fmt.Println("x")           // print family: excluded
	go pure()                        // no error result: fine
}
`)
	got := Run([]*Package{pkg}, []Rule{UncheckedError{}})
	if !sameLines(got, 9, 10) {
		t.Fatalf("unchecked-error fired on lines %v, want [9 10]\n%v", lines(got), got)
	}
}

// TestSelfLintTree asserts the whole module is clean under the full rule
// set with zero suppressions — the acceptance bar of the analyzer work.
func TestSelfLintTree(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree lint skipped in -short mode")
	}
	pkgs, err := Load("../..", []string{"./..."}, "")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("Load ./... returned only %d packages", len(pkgs))
	}
	kept, suppressed := RunAll(pkgs, DefaultRules())
	if len(kept) != 0 {
		msgs := make([]string, len(kept))
		for i, iss := range kept {
			msgs[i] = iss.String()
		}
		t.Errorf("tree is not lint-clean:\n%s", strings.Join(msgs, "\n"))
	}
	if len(suppressed) != 0 {
		msgs := make([]string, len(suppressed))
		for i, iss := range suppressed {
			msgs[i] = iss.String()
		}
		t.Errorf("tree must need zero suppressions, found %d:\n%s", len(suppressed), strings.Join(msgs, "\n"))
	}
}

func TestJSONReport(t *testing.T) {
	pkg := checkFixture(t, `package fixture

func cmp(a, b float64) bool {
	//promlint:ignore float-equality fixture shows a justified suppression
	x := a == b
	return x || a != b // line 6: kept
}
`)
	kept, suppressed := RunAll([]*Package{pkg}, []Rule{FloatEquality{}})
	rep := NewJSONReport(kept, suppressed)
	if len(rep.Findings) != 1 || rep.Findings[0].Line != 6 || rep.Findings[0].Rule != "float-equality" {
		t.Fatalf("bad findings: %+v", rep.Findings)
	}
	if rep.Suppressed != 1 || rep.SuppressedByRule["float-equality"] != 1 {
		t.Fatalf("bad suppression accounting: %+v", rep)
	}
	if rep.Findings[0].Severity != "error" || rep.Findings[0].File != "fixture.go" {
		t.Fatalf("bad issue serialization: %+v", rep.Findings[0])
	}
}
