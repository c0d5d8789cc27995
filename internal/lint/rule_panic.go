package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// LibraryPanic enforces the project's panic convention in library (non-main)
// packages: a panic is only acceptable for argument/invariant validation,
// and must be diagnosable — its message must be a compile-time string
// (optionally built with fmt.Sprintf or string concatenation) prefixed
// with the package name, e.g. panic("sparse: MulVec dimension mismatch").
// Dynamic panics (panic(err), panic(v)) hide the failing subsystem from
// the crash report and are flagged. The one dynamic panic allowed is the
// re-raise: an argument of static type any is what recover() returned
// (internal/pool carries a kernel panic from a helper to the dispatching
// goroutine), and passing it on unchanged is what keeps its message.
type LibraryPanic struct{}

// Name implements Rule.
func (LibraryPanic) Name() string { return "library-panic" }

// Check implements Rule.
func (r LibraryPanic) Check(pkg *Package) []Issue {
	if pkg.IsMain() {
		return nil
	}
	prefix := pkg.Types.Name() + ": "
	var out []Issue
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBuiltinPanic(pkg, call.Fun) || len(call.Args) != 1 {
				return true
			}
			if t, ok := pkg.Info.TypeOf(call.Args[0]).Underlying().(*types.Interface); ok && t.Empty() {
				return true
			}
			if !hasConstPrefix(pkg, call.Args[0], prefix) {
				out = append(out, issue(pkg, call, r.Name(), Error,
					"panic in library package must carry a constant message prefixed %q (argument/invariant validation only)", prefix))
			}
			return true
		})
	}
	return out
}

// isBuiltinPanic reports whether fun resolves to the predeclared panic.
func isBuiltinPanic(pkg *Package, fun ast.Expr) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	obj := pkg.Info.Uses[id]
	_, builtin := obj.(*types.Builtin)
	return builtin
}

// hasConstPrefix reports whether e is a message expression whose leading
// compile-time string starts with prefix: a constant string, a fmt.Sprintf
// call with such a format, or a + concatenation whose left spine leads to
// one.
func hasConstPrefix(pkg *Package, e ast.Expr, prefix string) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		return hasConstPrefix(pkg, x.X, prefix)
	case *ast.CallExpr:
		if isFmtFunc(pkg, x.Fun, "Sprintf") && len(x.Args) > 0 {
			return hasConstPrefix(pkg, x.Args[0], prefix)
		}
	}
	v := constValue(pkg, e)
	if v == nil || v.Kind() != constant.String {
		return false
	}
	return strings.HasPrefix(constant.StringVal(v), prefix)
}

// isFmtFunc reports whether fun resolves to fmt.<name>.
func isFmtFunc(pkg *Package, fun ast.Expr, name string) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "fmt" && fn.Name() == name
}
