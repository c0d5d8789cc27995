package lint

import (
	"go/ast"
	"go/types"
)

// funcIndex is the function-body index the interprocedural rules share
// (the hot-path dataflow, goroutine-lifecycle, ctx-flow, bounded-queue):
// every *ast.FuncDecl and *ast.FuncLit of the package keyed by its node,
// plus the resolution map from callable objects (declared functions and
// closure-bound local variables) to their unit node.
type funcIndex struct {
	bodies    map[ast.Node]*ast.BlockStmt
	objToUnit map[types.Object]ast.Node
}

// indexFuncs builds the function index for one package.
func indexFuncs(pkg *Package) *funcIndex {
	ix := &funcIndex{
		bodies:    make(map[ast.Node]*ast.BlockStmt),
		objToUnit: make(map[types.Object]ast.Node),
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body == nil {
					return true
				}
				ix.bodies[x] = x.Body
				if obj := pkg.Info.Defs[x.Name]; obj != nil {
					ix.objToUnit[obj] = x
				}
			case *ast.FuncLit:
				if _, seen := ix.bodies[x]; !seen {
					ix.bodies[x] = x.Body
				}
			case *ast.AssignStmt:
				// exchange := func(...) {...} — bind the closure body to
				// the local variable so calls through it resolve.
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, rhs := range x.Rhs {
					lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
					if !ok {
						continue
					}
					id, ok := x.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := pkg.Info.Defs[id]
					if obj == nil {
						obj = pkg.Info.Uses[id]
					}
					if obj != nil {
						ix.objToUnit[obj] = lit
					}
				}
			}
			return true
		})
	}
	return ix
}

// calleeObject resolves the called object of a call expression: a
// *types.Func for ordinary, method and interface calls (including generic
// instantiations like RecvAs[T](...)), or the bound variable for calls
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
