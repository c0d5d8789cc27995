package lint

import (
	"go/ast"
)

// checkPath is the import path of the invariant package.
const checkPath = "prometheus/internal/check"

// CheckGuard requires every call into the invariant package to sit
// under an `if check.Enabled` guard. The check stubs fold away in
// release builds, but their *arguments* are evaluated at the call site
// regardless — an unguarded check.CSRWellFormed(a, ...) pays the
// argument computation even when checking is compiled out. The guard
// makes the debug-only cost structurally obvious and lets the compiler
// delete the whole block when Enabled is the false constant.
type CheckGuard struct{}

// Name implements Rule.
func (CheckGuard) Name() string { return "check-guard" }

// Check implements Rule.
func (r CheckGuard) Check(pkg *Package) []Issue {
	if pkg.Path == checkPath {
		return nil // the package may call itself freely
	}
	var out []Issue
	var visit func(n ast.Node, guarded bool)
	visit = func(n ast.Node, guarded bool) {
		if n == nil {
			return
		}
		if ifst, ok := n.(*ast.IfStmt); ok && isEnabledGuard(pkg, ifst.Cond) {
			// Everything under the guard — including short-circuited
			// conjuncts of the condition itself — is debug-only.
			visit(ifst.Init, guarded)
			visit(ifst.Cond, true)
			visitChildren(ifst.Body, true, visit)
			visit(ifst.Else, guarded)
			return
		}
		if call, ok := n.(*ast.CallExpr); ok && !guarded {
			if fn := resolvedCallee(pkg, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == checkPath {
				out = append(out, issue(pkg, call, r.Name(), Error,
					"check.%s called outside an `if check.Enabled` guard; invariant computation must be gated so release builds pay nothing", fn.Name()))
			}
		}
		visitChildren(n, guarded, visit)
	}
	for _, f := range pkg.Files {
		visitChildren(f, false, visit)
	}
	return out
}

// isEnabledGuard reports whether cond references the Enabled constant of
// the invariant package.
func isEnabledGuard(pkg *Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Enabled" {
			return true
		}
		if obj := pkg.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == checkPath {
			found = true
			return false
		}
		return true
	})
	return found
}

// visitChildren applies visit to every direct child of n with the given
// guard state, without revisiting n itself.
func visitChildren(n ast.Node, guarded bool, visit func(ast.Node, bool)) {
	if n == nil {
		return
	}
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c == nil {
			return false
		}
		visit(c, guarded)
		return false
	})
}
