package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// LogDiscipline enforces the structured-logging contract in the service
// packages, where log lines are an operational API: scrapers and trace
// correlation depend on stable keys and on every request-path record
// carrying the request context.
//
//   - no fmt.Print/Printf/Println and no "log" package output (Print*,
//     Fatal*, Panic*, and their *log.Logger method forms): ad-hoc
//     prints bypass the handler chain, so they carry no level, no
//     structure and no trace id;
//   - no context-free slog emission (slog.Info/Warn/Error/Debug and the
//     same methods on *slog.Logger): the trace id reaches a record only
//     through the context, so request-path code must use the *Context
//     variants or Log/LogAttrs, which all take a ctx;
//   - slog attribute keys must be compile-time string constants — both
//     the Attr constructors (slog.String, slog.Int, ...) and the
//     alternating key-value form of Log and the *Context variants.
//     Computed keys make series cardinality unbounded and grepping
//     unreliable. A spread (kvs...) is the caller's composition point
//     and is left to the site that built the slice.
type LogDiscipline struct {
	// Services overrides the service-package list (defaults to the
	// tree's serve/promserve layer); fixtures point it at themselves.
	Services []string
}

// defaultServicePackages is the tree's service layer.
var defaultServicePackages = []string{
	"prometheus/internal/serve",
	"prometheus/cmd/promserve",
}

// Name returns the rule identifier.
func (LogDiscipline) Name() string { return "log-discipline" }

// logBannedStdlog is the "log" package output surface (functions and
// the identical *log.Logger methods).
var logBannedStdlog = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

// logCtxFreeSlog is the slog emission surface that drops the context.
var logCtxFreeSlog = map[string]bool{
	"Info": true, "Warn": true, "Error": true, "Debug": true,
}

// logAttrCtors is the slog.Attr constructor set whose first argument is
// the attribute key.
var logAttrCtors = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Uint64": true,
	"Float64": true, "Bool": true, "Time": true, "Duration": true,
	"Any": true, "Group": true,
}

// logAlternating is the slog call surface taking ...any key-value pairs
// after a ctx (and level/message) prefix.
var logAlternating = map[string]bool{
	"Log": true, "InfoContext": true, "WarnContext": true,
	"ErrorContext": true, "DebugContext": true,
}

// Check analyzes one package.
func (r LogDiscipline) Check(pkg *Package) []Issue {
	services := r.Services
	if services == nil {
		services = defaultServicePackages
	}
	if !pathInSet(pkg.Path, services) {
		return nil
	}
	var issues []Issue
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pkg, call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			name := obj.Name()
			switch obj.Pkg().Path() {
			case "fmt":
				if name == "Print" || name == "Printf" || name == "Println" {
					issues = append(issues, issue(pkg, call, r.Name(), Error,
						"fmt.%s bypasses the structured logger; log through slog with a ctx", name))
				}
			case "log":
				if logBannedStdlog[name] {
					issues = append(issues, issue(pkg, call, r.Name(), Error,
						"log.%s bypasses the structured logger; log through slog with a ctx", name))
				}
			case "log/slog":
				switch {
				case logCtxFreeSlog[name]:
					issues = append(issues, issue(pkg, call, r.Name(), Error,
						"slog %s drops the request context (and with it the trace id); use %sContext or LogAttrs", name, name))
				case logAttrCtors[name]:
					if len(call.Args) >= 1 && !isConstString(pkg, call.Args[0]) {
						issues = append(issues, issue(pkg, call.Args[0], r.Name(), Error,
							"slog.%s key must be a compile-time constant string", name))
					}
				case logAlternating[name]:
					issues = append(issues, r.checkAlternating(pkg, call, obj)...)
				}
			}
			return true
		})
	}
	sortIssues(issues)
	return issues
}

// checkAlternating verifies the ...any tail of an alternating key-value
// slog call: even positions must be constant-string keys unless they are
// already slog.Attr values.
func (r LogDiscipline) checkAlternating(pkg *Package, call *ast.CallExpr, obj types.Object) []Issue {
	if call.Ellipsis.IsValid() {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || !sig.Variadic() {
		return nil
	}
	fixed := sig.Params().Len() - 1
	if len(call.Args) <= fixed {
		return nil
	}
	var issues []Issue
	pos := 0
	for _, arg := range call.Args[fixed:] {
		if isSlogAttr(pkg, arg) {
			// An Attr consumes one slot without advancing the key/value
			// alternation, matching slog's own argument parsing.
			continue
		}
		if pos%2 == 0 && !isConstString(pkg, arg) {
			issues = append(issues, issue(pkg, arg, r.Name(), Error,
				"slog key in alternating form must be a compile-time constant string"))
		}
		pos++
	}
	return issues
}

// isConstString reports whether e is a compile-time string constant.
func isConstString(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.String
}

// isSlogAttr reports whether e's static type is log/slog.Attr.
func isSlogAttr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o != nil && o.Name() == "Attr" && o.Pkg() != nil && o.Pkg().Path() == "log/slog"
}
