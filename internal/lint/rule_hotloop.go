package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotLoopAlloc flags per-iteration heap allocations in the solver's
// kernel packages. An expression is a finding when it both allocates
// (make/new, map or slice literals, &T{} escapes, closure creation,
// string concatenation, allocating string conversions, appends into
// per-iteration buffers, or concrete→interface boxing at call sites)
// and sits in a hot region as computed by the loop-nesting dataflow in
// dataflow.go — code reached once per solver iteration from a kernel
// entry point. Setup and constructor code may allocate freely; the
// steady-state SpMV/smoother/halo paths may not.
type HotLoopAlloc struct {
	// Kernels is the package set to analyze (default KernelPackages).
	Kernels []string
	// Roots names the per-iteration entry points (default DefaultHotRoots).
	Roots []string
	// CheckPath is the invariant package whose Enabled guard exempts a
	// block (default prometheus/internal/check).
	CheckPath string
}

// Name implements Rule.
func (HotLoopAlloc) Name() string { return "hotloop-alloc" }

// Check implements Rule.
func (r HotLoopAlloc) Check(pkg *Package) []Issue {
	kernels := r.Kernels
	if kernels == nil {
		kernels = KernelPackages()
	}
	roots := r.Roots
	if roots == nil {
		roots = DefaultHotRoots()
	}
	checkPath := r.CheckPath
	if checkPath == "" {
		checkPath = "prometheus/internal/check"
	}
	if !pathInSet(pkg.Path, kernels) {
		return nil
	}
	var out []Issue
	report := func(n ast.Node, format string, args ...interface{}) {
		out = append(out, issue(pkg, n, r.Name(), Error, format, args...))
	}
	h := analyzeHot(pkg, kernels, roots, checkPath)
	h.HotRegions(func(n ast.Node) {
		switch x := n.(type) {
		case *ast.CallExpr:
			r.checkCall(pkg, h, x, report)
		case *ast.CompositeLit:
			switch pkg.Info.Types[x].Type.Underlying().(type) {
			case *types.Slice:
				report(x, "hot path allocates: slice literal built per iteration; hoist the buffer into solver state")
			case *types.Map:
				report(x, "hot path allocates: map literal built per iteration; hoist it into solver state")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x, "hot path allocates: &composite literal escapes per iteration; reuse a hoisted value")
				}
			}
		case *ast.FuncLit:
			report(x, "hot path allocates: closure created per iteration; hoist it or use a named function")
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringExpr(pkg, x) && pkg.Info.Types[x].Value == nil {
				report(x, "hot path allocates: string concatenation per iteration; precompute or use a builder outside the kernel")
			}
		}
	})
	return out
}

// checkCall flags allocating calls: make/new builtins, appends that grow
// per-iteration buffers, allocating string conversions, and interface
// boxing of concrete arguments.
func (r HotLoopAlloc) checkCall(pkg *Package, h *hotAnalysis, call *ast.CallExpr, report func(ast.Node, string, ...interface{})) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := pkg.Info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "make":
				report(call, "hot path allocates: make(...) runs per iteration; hoist the buffer into solver/smoother state")
			case "new":
				report(call, "hot path allocates: new(...) runs per iteration; hoist the value into solver/smoother state")
			case "append":
				if len(call.Args) > 0 {
					if dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						obj := pkg.Info.Uses[dst]
						if obj == nil {
							obj = pkg.Info.Defs[dst]
						}
						if obj != nil && h.hotDecl[obj] {
							report(call, "hot path allocates: append grows %s, which is declared per iteration; hoist the buffer and reset it with [:0]", dst.Name)
						}
					}
				}
			}
			return
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		// Allocating conversions: string <-> []byte/[]rune copy the data.
		if pkg.Info.Types[call.Args[0]].Value == nil && isAllocatingConversion(tv.Type, pkg.Info.Types[call.Args[0]].Type) {
			report(call, "hot path allocates: string/byte-slice conversion copies per iteration; keep one representation in the kernel")
		}
		return
	}
	for _, arg := range boxedArgs(pkg, call) {
		report(arg, "hot path allocates: %s value boxed into interface at call; pass a pointer payload or use a typed API",
			types.TypeString(pkg.Info.Types[arg].Type, types.RelativeTo(pkg.Types)))
	}
}

// boxedArgs returns the call arguments that undergo an allocating
// concrete→interface conversion: the parameter is an interface, the
// argument is a concrete non-constant value, and its representation is
// not pointer-shaped (pointers, channels, maps and funcs store directly
// in the interface word without allocating).
func boxedArgs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	params := sig.Params()
	var out []ast.Expr
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				// s... passes the slice itself; its type matches and
				// nothing is boxed per element.
				continue
			}
			if sl, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pkg.Info.Types[arg]
		if at.Type == nil || at.Value != nil {
			continue // constants are staticized by the compiler
		}
		if types.IsInterface(at.Type) || isUntypedNil(at.Type) || pointerShaped(at.Type) {
			continue
		}
		out = append(out, arg)
	}
	return out
}

// pointerShaped reports whether values of the type occupy exactly one
// pointer word, so interface conversion stores them without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isUntypedNil reports the untyped nil type.
func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isStringExpr reports whether the expression has string type.
func isStringExpr(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isAllocatingConversion reports string<->[]byte/[]rune conversions.
func isAllocatingConversion(to, from types.Type) bool {
	if from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
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
