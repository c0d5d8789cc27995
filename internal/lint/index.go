package lint

import (
	"go/ast"
	"go/types"
)

// calleeObject resolves the called object of a call expression: a
// *types.Func for ordinary, method and interface calls (including generic
// instantiations like NewMail[T](...)), or the bound variable for calls
// through local closures.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	case *ast.IndexExpr:
		switch x := ast.Unparen(fun.X).(type) {
		case *ast.Ident:
			return pkg.Info.Uses[x]
		case *ast.SelectorExpr:
			return pkg.Info.Uses[x.Sel]
		}
	case *ast.IndexListExpr:
		switch x := ast.Unparen(fun.X).(type) {
		case *ast.Ident:
			return pkg.Info.Uses[x]
		case *ast.SelectorExpr:
			return pkg.Info.Uses[x.Sel]
		}
	}
	return nil
}

// resolvedCallee is calleeObject narrowed to a statically-known function;
// calls through closure variables resolve to nil.
func resolvedCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	fn, _ := calleeObject(pkg, call).(*types.Func)
	return fn
}
