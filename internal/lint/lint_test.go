package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// fakeFmt builds a minimal stand-in for the fmt package so fixtures can
// exercise the fmt-aware rule logic without depending on export data.
func fakeFmt() *types.Package {
	pkg := types.NewPackage("fmt", "fmt")
	scope := pkg.Scope()
	anySlice := types.NewSlice(types.Universe.Lookup("any").Type())
	str := types.Typ[types.String]
	errType := types.Universe.Lookup("error").Type()
	intType := types.Typ[types.Int]

	sig := func(params *types.Tuple, results *types.Tuple, variadic bool) *types.Signature {
		return types.NewSignatureType(nil, nil, nil, params, results, variadic)
	}
	param := func(t types.Type) *types.Var { return types.NewParam(token.NoPos, pkg, "", t) }

	scope.Insert(types.NewFunc(token.NoPos, pkg, "Sprintf",
		sig(types.NewTuple(param(str), param(anySlice)), types.NewTuple(param(str)), true)))
	scope.Insert(types.NewFunc(token.NoPos, pkg, "Errorf",
		sig(types.NewTuple(param(str), param(anySlice)), types.NewTuple(param(errType)), true)))
	scope.Insert(types.NewFunc(token.NoPos, pkg, "Println",
		sig(types.NewTuple(param(anySlice)), types.NewTuple(param(intType), param(errType)), true)))
	scope.Insert(types.NewFunc(token.NoPos, pkg, "Printf",
		sig(types.NewTuple(param(str), param(anySlice)), types.NewTuple(param(intType), param(errType)), true)))
	pkg.MarkComplete()
	return pkg
}

// fixtureImporter serves the fake fmt plus any fixture dependency
// packages, falling back to the default importer.
type fixtureImporter struct{ pkgs map[string]*types.Package }

// stdImporter is shared across all fixture type-checks so stdlib
// packages resolve to one *types.Package each (two importer instances
// would otherwise yield e.g. two distinct "context" packages, breaking
// cross-package assignability in fixtures).
var stdImporter = importer.Default()

func (fi fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p, nil
	}
	return stdImporter.Import(path)
}

// fixtureDep is one source-level dependency package of a fixture,
// type-checked under the given import path before the fixture itself.
type fixtureDep struct {
	path string
	src  string
}

// checkFixture parses and type-checks one fixture source string.
func checkFixture(t *testing.T, src string) *Package {
	t.Helper()
	return checkFixtureWith(t, nil, src)
}

// checkFixtureWith type-checks the dependency packages in order (later
// ones may import earlier ones), then the fixture itself.
func checkFixtureWith(t *testing.T, deps []fixtureDep, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	imp := fixtureImporter{pkgs: map[string]*types.Package{"fmt": fakeFmt()}}
	conf := types.Config{Importer: imp}
	for _, dep := range deps {
		f, err := parser.ParseFile(fset, dep.path+"/dep.go", dep.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture dep %s: %v", dep.path, err)
		}
		p, err := conf.Check(dep.path, fset, []*ast.File{f}, nil)
		if err != nil {
			t.Fatalf("type-check fixture dep %s: %v", dep.path, err)
		}
		imp.pkgs[dep.path] = p
	}
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check("fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{Path: "fixture", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// lines extracts the line numbers of the issues, in order.
func lines(issues []Issue) []int {
	out := make([]int, len(issues))
	for i, iss := range issues {
		out[i] = iss.Pos.Line
	}
	return out
}

func sameLines(got []Issue, want ...int) bool {
	g := lines(got)
	if len(g) != len(want) {
		return false
	}
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

func TestFloatEquality(t *testing.T) {
	pkg := checkFixture(t, `package fixture

func cmp(a, b float64, i, j int, s, u string) bool {
	if a == b { // line 4: flagged
		return true
	}
	if a != b { // line 7: flagged
		return true
	}
	if a == 0 { // zero sentinel: allowed
		return true
	}
	if 0.0 != b { // zero on the left: allowed
		return true
	}
	if a != a { // NaN idiom: allowed
		return true
	}
	if a == 0.5 { // line 19: nonzero constant: flagged
		return true
	}
	if i == j { // ints: not this rule's business
		return true
	}
	return s == u // strings: fine
}
`)
	got := Run([]*Package{pkg}, []Rule{FloatEquality{}})
	if !sameLines(got, 4, 7, 19) {
		t.Fatalf("float-equality fired on lines %v, want [4 7 19]\n%v", lines(got), got)
	}
	for _, iss := range got {
		if iss.Rule != "float-equality" || iss.Severity != Error {
			t.Fatalf("bad issue metadata: %+v", iss)
		}
	}
}

func TestLibraryPanic(t *testing.T) {
	pkg := checkFixture(t, `package fixture

import "fmt"

func validate(n int, err error) {
	if n < 0 {
		panic("fixture: negative size") // convention: allowed
	}
	panic(fmt.Sprintf("fixture: bad n %d", n)) // Sprintf with prefix: allowed
	panic("fixture: " + fmt.Sprintf("%d", n))  // concat with prefix: allowed
	panic("wrong prefix")                      // line 11: flagged
	panic(err)                                 // line 12: flagged
	panic(fmt.Sprintf("no prefix %d", n))      // line 13: flagged
}

func reraise() {
	defer func() {
		if v := recover(); v != nil {
			panic(v) // a recovered value passed on: allowed
		}
	}()
}
`)
	got := Run([]*Package{pkg}, []Rule{LibraryPanic{}})
	if !sameLines(got, 11, 12, 13) {
		t.Fatalf("library-panic fired on lines %v, want [11 12 13]\n%v", lines(got), got)
	}
}

func TestLibraryPanicSkipsMain(t *testing.T) {
	pkg := checkFixture(t, `package main

func main() {
	panic("anything goes in a command")
}
`)
	if got := Run([]*Package{pkg}, []Rule{LibraryPanic{}}); len(got) != 0 {
		t.Fatalf("library-panic must skip package main, got %v", got)
	}
}

func TestUncheckedError(t *testing.T) {
	pkg := checkFixture(t, `package fixture

import (
	"fmt"
	"strings"
)

func mayFail() error { return nil }
func pair() (int, error) { return 0, nil }
func pure() int { return 0 }

func caller() {
	mayFail()        // line 13: flagged
	pair()           // line 14: flagged (tuple containing error)
	pure()           // no error result: fine
	_ = mayFail()    // explicit discard: fine
	if err := mayFail(); err != nil {
		panic(err)
	}
	fmt.Println("x") // fmt print family: excluded
	var sb strings.Builder
	sb.WriteString("y") // in-memory writer: excluded
	_ = sb.String()
}
`)
	got := Run([]*Package{pkg}, []Rule{UncheckedError{}})
	if !sameLines(got, 13, 14) {
		t.Fatalf("unchecked-error fired on lines %v, want [13 14]\n%v", lines(got), got)
	}
}

func TestExportedDoc(t *testing.T) {
	pkg := checkFixture(t, `package fixture

// Documented is fine.
type Documented struct{}

type Bare struct{}

// Good has a doc comment.
func Good() {}

func Missing() {}

func unexported() {}

// Grouped constants satisfy the rule with one block comment.
const (
	A = iota
	B
)

var Loose int

// Trailing has a trailing doc, which the rule accepts.
type Trailing struct{} // accepted via spec comment

// DoDoc is documented; its method below is not.
type DoDoc struct{}

func (DoDoc) Method() {}

type hidden struct{}

func (hidden) Exported() {}
`)
	// Bare (6), Missing (11), Loose (21), Method (29); the method on the
	// unexported type and everything documented stay quiet.
	got := Run([]*Package{pkg}, []Rule{ExportedDoc{}})
	if !sameLines(got, 6, 11, 21, 29) {
		t.Fatalf("exported-doc fired on lines %v, want [6 11 21 29]\n%v", lines(got), got)
	}
	for _, iss := range got {
		if iss.Severity != Warning {
			t.Fatalf("exported-doc must be a warning: %+v", iss)
		}
	}
}

func TestSuppression(t *testing.T) {
	pkg := checkFixture(t, `package fixture

func cmp(a, b float64) bool {
	//promlint:ignore float-equality exact bit test is intentional here
	if a == b {
		return true
	}
	x := a != b //promlint:ignore float-equality same-line directive
	//promlint:ignore float-equality
	y := a == b // directive above lacks a reason: still flagged (line 10)
	return x || y
}
`)
	got := Run([]*Package{pkg}, []Rule{FloatEquality{}})
	if !sameLines(got, 10) {
		t.Fatalf("suppression failed: issues on lines %v, want [10]\n%v", lines(got), got)
	}
}

func TestIssueString(t *testing.T) {
	iss := Issue{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Rule:     "float-equality",
		Severity: Error,
		Msg:      "bad",
	}
	want := "x.go:3:7: error: [float-equality] bad"
	if iss.String() != want {
		t.Fatalf("Issue.String() = %q, want %q", iss.String(), want)
	}
}

func TestRunSortsIssues(t *testing.T) {
	pkg := checkFixture(t, `package fixture

func f(a, b float64) {
	_ = a == b
	panic("no package prefix")
}
`)
	rules := []Rule{LibraryPanic{}, FloatEquality{}}
	got := Run([]*Package{pkg}, rules)
	if len(got) != 2 || got[0].Pos.Line > got[1].Pos.Line {
		t.Fatalf("issues not sorted by position: %v", got)
	}
}

func TestDefaultRulesComplete(t *testing.T) {
	want := map[string]bool{
		"float-equality":  true,
		"library-panic":   true,
		"unchecked-error": true,
		"exported-doc":    true,
		"check-guard":     true,
		"map-order":       true,
		"obs-discipline":  true,
		"sync-discipline": true,
		"log-discipline":  true,
		"operator-seam":   true,
	}
	names := make([]string, 0, len(want))
	for _, r := range DefaultRules() {
		if !want[r.Name()] {
			t.Fatalf("unexpected rule %q", r.Name())
		}
		names = append(names, r.Name())
	}
	if len(names) != len(want) {
		t.Fatalf("DefaultRules has %d rules (%s), want %d", len(names), strings.Join(names, ", "), len(want))
	}

	// README's "full rule set at a glance" table must carry exactly these
	// rules, one row each, so the table cannot go stale.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(readme), "| rule | guards |\n")
	if !found {
		t.Fatal("README.md has no `| rule | guards |` table")
	}
	rows := map[string]bool{}
	for i, line := range strings.Split(table, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			break
		}
		if i == 0 { // the |---|---| separator
			continue
		}
		name := strings.Trim(strings.TrimSpace(strings.Split(line, "|")[1]), "`")
		if rows[name] {
			t.Errorf("README rule table lists %q twice", name)
		}
		rows[name] = true
		if !want[name] {
			t.Errorf("README rule table lists %q, which is not in DefaultRules", name)
		}
	}
	for _, name := range names {
		if !rows[name] {
			t.Errorf("README rule table has no row for %q", name)
		}
	}
}

// TestLoadSelf smoke-tests the go list loader against this package itself.
func TestLoadSelf(t *testing.T) {
	pkgs, err := Load(".", []string{"."}, "")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "prometheus/internal/lint" {
		t.Fatalf("Load returned %v", pkgs)
	}
	if pkgs[0].IsMain() {
		t.Fatal("internal/lint must not be a main package")
	}
	// The package must lint itself clean with the default rules.
	if issues := Run(pkgs, DefaultRules()); len(issues) != 0 {
		msgs := make([]string, len(issues))
		for i, iss := range issues {
			msgs[i] = iss.String()
		}
		t.Fatalf("internal/lint is not lint-clean:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestFixtureHelperRejectsBadSource keeps the harness honest.
func TestFixtureHelperRejectsBadSource(t *testing.T) {
	defer func() { _ = recover() }()
	bad := "package fixture\nfunc ("
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "bad.go", bad, 0); err == nil {
		t.Fatal("expected parse error")
	}
	_ = fmt.Sprintf // keep fmt linked for the fake importer
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
