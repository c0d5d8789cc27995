// Package lint implements promlint, the project's custom static analyzer.
// It is built purely on the standard library's go/parser, go/ast and
// go/types — no golang.org/x/tools dependency — and enforces the
// project-specific correctness rules that generic linters cannot know
// about:
//
//   - float-equality: no naked ==/!= between floating-point operands
//     (compare against literal zero, or use a tolerance);
//   - library-panic: panics in library packages must be diagnosable —
//     a constant message prefixed with the package name ("sparse: ...");
//   - unchecked-error: error results must not be silently discarded;
//   - exported-doc: exported solver API needs doc comments;
//   - check-guard: invariant computation must sit under if check.Enabled;
//   - map-order: the coarsening pipeline must not range over maps while
//     writing output slices; iterate sortutil.Keys instead so runs are
//     bitwise reproducible;
//   - obs-discipline: obs event/metric names must be tree-unique string
//     constants (never fmt.Sprintf), and every obs.Start span must be
//     ended on all paths (End/EndFlops, deferred End, or the balanced
//     obs.Start(id).End() chain);
//   - sync-discipline: no go statement, channel, select, sync or
//     sync/atomic anywhere in the compute packages, which parallelize
//     only through internal/pool;
//   - log-discipline: service-package logging is structured and
//     request-scoped — no fmt/log prints, no context-free slog calls,
//     and slog attribute keys are compile-time string constants;
//   - operator-seam: type assertions and type switches on the concrete
//     storage types (*sparse.CSR, *sparse.BSR) are confined to the
//     storage seam (internal/sparse and internal/multigrid) —
//     everywhere else must use the sparse capability interfaces or the
//     sanctioned AsCSR helper, so storage stays a kernel choice.
//
// Properties a running test holds are not restated as rules: the message
// protocol of internal/par (a message a round delivers and nobody takes
// panics under promdebug), allocation-free kernels (the testing.AllocsPerRun
// tests beside each kernel, and TestPooledPathZeroAlloc on the worker
// set), and the service's goroutine, cancellation and release discipline
// (TestHandleSolveClosesTheBooks and TestCloseStopsTheJanitor in
// internal/serve).
//
// A finding can be suppressed in place with a directive comment on the
// same line or the line above:
//
//	//promlint:ignore <rule> <reason>
//
// The reason is free text but required, so every suppression documents
// why the code is intentionally exempt.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity classifies a finding.
type Severity int

const (
	// Warning findings are reported but describe style-level debt.
	Warning Severity = iota
	// Error findings are correctness hazards.
	Error
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Issue is one finding at a source position.
type Issue struct {
	Pos      token.Position
	Rule     string
	Severity Severity
	Msg      string
}

// String formats the issue in the conventional file:line:col style.
func (i Issue) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: [%s] %s", i.Pos.Filename, i.Pos.Line, i.Pos.Column, i.Severity, i.Rule, i.Msg)
}

// Package is one type-checked package presented to the rules.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// IsMain reports whether the package is a command (package main).
func (p *Package) IsMain() bool { return p.Types != nil && p.Types.Name() == "main" }

// Rule is one pluggable check. Check returns raw findings; suppression
// filtering is applied by Run.
type Rule interface {
	// Name is the rule identifier used in output and ignore directives.
	Name() string
	// Check inspects one package and returns its findings.
	Check(pkg *Package) []Issue
}

// DefaultRules returns the project rule set.
func DefaultRules() []Rule {
	return []Rule{
		FloatEquality{},
		LibraryPanic{},
		UncheckedError{},
		ExportedDoc{},
		CheckGuard{},
		MapOrder{},
		&ObsDiscipline{},
		SyncDiscipline{},
		LogDiscipline{},
		OperatorSeam{},
	}
}

// Run applies every rule to every package, filters suppressed findings,
// and returns the remainder sorted by position.
func Run(pkgs []*Package, rules []Rule) []Issue {
	kept, _ := RunAll(pkgs, rules)
	return kept
}

// RunAll is Run with suppression accounting: it returns both the kept
// findings and the findings silenced by promlint:ignore directives (also
// sorted), so callers can report how much debt the suppressions hide.
func RunAll(pkgs []*Package, rules []Rule) (kept, suppressed []Issue) {
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, r := range rules {
			for _, iss := range r.Check(pkg) {
				if sup.matches(iss) {
					suppressed = append(suppressed, iss)
					continue
				}
				kept = append(kept, iss)
			}
		}
	}
	sortIssues(kept)
	sortIssues(suppressed)
	return kept, suppressed
}

// sortIssues orders findings by position, then rule name, then message,
// so repeated runs (and runs over differently-ordered package maps)
// produce byte-identical reports.
func sortIssues(out []Issue) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// suppressions maps file -> line -> rule names ignored there.
type suppressions map[string]map[int]map[string]bool

// matches reports whether the issue is covered by a directive on its own
// line or the line directly above it.
func (s suppressions) matches(iss Issue) bool {
	lines := s[iss.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range []int{iss.Pos.Line, iss.Pos.Line - 1} {
		if rules := lines[ln]; rules != nil && (rules[iss.Rule] || rules["all"]) {
			return true
		}
	}
	return false
}

// collectSuppressions scans every comment for promlint:ignore directives.
func collectSuppressions(pkg *Package) suppressions {
	out := make(suppressions)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "promlint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "promlint:ignore"))
				if len(fields) < 2 {
					// A directive without both rule name and reason is
					// ineffective by design: suppressions must be justified.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]map[string]bool)
				}
				if out[pos.Filename][pos.Line] == nil {
					out[pos.Filename][pos.Line] = make(map[string]bool)
				}
				out[pos.Filename][pos.Line][fields[0]] = true
			}
		}
	}
	return out
}

// pathInSet reports whether path is one of (or below) the set entries.
func pathInSet(path string, set []string) bool {
	for _, k := range set {
		if path == k || (len(path) > len(k) && path[:len(k)] == k && path[len(k)] == '/') {
			return true
		}
	}
	return false
}

// issue builds an Issue at the node's position.
func issue(pkg *Package, n ast.Node, rule string, sev Severity, format string, args ...interface{}) Issue {
	return Issue{
		Pos:      pkg.Fset.Position(n.Pos()),
		Rule:     rule,
		Severity: sev,
		Msg:      fmt.Sprintf(format, args...),
	}
}
