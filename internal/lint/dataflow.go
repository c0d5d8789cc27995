package lint

import (
	"go/ast"
	"go/types"
)

// This file implements the loop-nesting dataflow analysis behind the
// hot-path rules. The model: a statement is "hot" when it executes once
// per solver iteration rather than once per setup. Hot code is seeded by
// the per-iteration entry points (kernel interface methods such as
// Smooth, Apply, MulVec — functions invoked from the iteration loop of
// another package, often through an interface) and grown two ways:
//
//   - a loop becomes hot when its body calls a kernel entry point or an
//     already-hot function: a loop that performs SpMV or smoothing per
//     trip IS the solver iteration loop, wherever it lives;
//   - a function (or closure) becomes hot when it is called from hot
//     code in the same package.
//
// Setup loops — assembling operators, building hierarchies, factoring
// blocks — call no kernel entry points and stay cold, so constructors
// may allocate freely while the steady-state paths may not.
//
// Blocks guarded by `if check.Enabled` and the arguments of panic calls
// are excluded from hot regions: debug invariants and failure paths are
// allowed to allocate.

// DefaultHotRoots are the per-iteration kernel entry points: any
// function or method with one of these names, defined in a kernel
// package, executes once per solver iteration (they are dispatched from
// iteration loops, usually through the multigrid cycle, the
// krylov.Preconditioner interface or the Comm hot protocol).
func DefaultHotRoots() []string {
	return []string{
		"MulVec", "MulVecRange", "Residual", // SpMV kernels (CSR and BSR)
		"Smooth", "Apply", // smoother / preconditioner entry points
		"Exchange", "Dot", "MulVecBSR", // halo protocol (scalar + blocked)
		"Send", "Recv", "RecvAs", "Barrier", // point-to-point + barrier
		"AllReduceSum", "AllReduceIntSum", "AllReduceMax", // typed collectives
		"Dispatch", // shared-memory worker-pool fan-out
	}
}

// KernelPackages is the package set whose loops and entry points the
// hot-path rules reason about — the per-iteration compute and
// communication kernels of the solver.
func KernelPackages() []string {
	return []string{
		"prometheus/internal/sparse",
		"prometheus/internal/la",
		"prometheus/internal/smooth",
		"prometheus/internal/krylov",
		"prometheus/internal/multigrid",
		"prometheus/internal/par",
		"prometheus/internal/pool",
	}
}

// hotUnit is one analyzable function body: a declared function, a
// closure bound to a local variable, or an anonymous literal.
type hotUnit struct {
	body *ast.BlockStmt
	hot  bool // whole body executes per iteration
}

// hotAnalysis is the per-package result of the loop-nesting dataflow.
type hotAnalysis struct {
	pkg     *Package
	kernels []string        // package path prefixes forming the kernel set
	roots   map[string]bool // entry-point function names

	checkPath string // import path of the invariant package (check.Enabled)

	// units keys every function body by its *ast.FuncDecl or
	// *ast.FuncLit node; objToUnit resolves call targets (declared
	// functions and closure-bound local variables) to their unit.
	units     map[ast.Node]*hotUnit
	objToUnit map[types.Object]ast.Node
	// hotLoops marks loop statements whose body is hot.
	hotLoops map[ast.Stmt]bool
	// hotDecl marks objects declared inside hot code (per-iteration
	// locals; appending to such a slice is a fresh allocation).
	hotDecl map[types.Object]bool

	changed bool
}

// analyzeHot runs the fixpoint for one package. checkPath names the
// invariant package whose Enabled guard exempts a block (normally
// prometheus/internal/check).
func analyzeHot(pkg *Package, kernels, roots []string, checkPath string) *hotAnalysis {
	h := &hotAnalysis{
		pkg:       pkg,
		kernels:   kernels,
		checkPath: checkPath,
		roots:     make(map[string]bool, len(roots)),
		units:     make(map[ast.Node]*hotUnit),
		objToUnit: make(map[types.Object]ast.Node),
		hotLoops:  make(map[ast.Stmt]bool),
		hotDecl:   make(map[types.Object]bool),
	}
	for _, r := range roots {
		h.roots[r] = true
	}
	h.collectUnits()
	// Fixpoint: each pass may promote loops (body calls hot things) and
	// callees (called from hot code); both monotone, so iteration ends.
	for {
		h.changed = false
		for _, u := range h.units {
			h.walk(u.body, u.hot)
		}
		if !h.changed {
			break
		}
	}
	return h
}

// collectUnits adopts the shared function index (index.go), seeding
// hotness at kernel entry points.
func (h *hotAnalysis) collectUnits() {
	ix := indexFuncs(h.pkg)
	h.objToUnit = ix.objToUnit
	for node, body := range ix.bodies {
		u := &hotUnit{body: body}
		if d, ok := node.(*ast.FuncDecl); ok {
			u.hot = h.roots[d.Name.Name]
		}
		h.units[node] = u
	}
}

// inKernelSet reports whether an import path belongs to the kernel set.
func (h *hotAnalysis) inKernelSet(path string) bool {
	return pathInSet(path, h.kernels)
}

// calleeObj resolves the called object through the shared resolver
// (index.go): a *types.Func for ordinary and interface calls, or the
// bound-closure variable for local closures.
func (h *hotAnalysis) calleeObj(call *ast.CallExpr) types.Object {
	return calleeObject(h.pkg, call)
}

// isHotCall reports whether the call invokes a kernel entry point (by
// name, resolved into the kernel package set — including interface
// methods) or an already-hot function or closure of this package.
func (h *hotAnalysis) isHotCall(call *ast.CallExpr) bool {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		u := h.units[lit]
		return u != nil && u.hot
	}
	obj := h.calleeObj(call)
	if obj == nil {
		return false
	}
	if fn, ok := obj.(*types.Func); ok {
		if h.roots[fn.Name()] && fn.Pkg() != nil && h.inKernelSet(fn.Pkg().Path()) {
			return true
		}
	}
	if key, ok := h.objToUnit[obj]; ok {
		return h.units[key].hot
	}
	return false
}

// markCallee promotes the target of a call made from hot code.
func (h *hotAnalysis) markCallee(call *ast.CallExpr) {
	var key ast.Node
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		key = lit // immediately-invoked literal runs inline: hot too
	} else {
		obj := h.calleeObj(call)
		if obj == nil {
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != h.pkg.Types {
			// Same-package functions only: other packages are analyzed
			// in their own right (with their own entry points).
			return
		}
		k, ok := h.objToUnit[obj]
		if !ok {
			return
		}
		key = k
	}
	if u := h.units[key]; u != nil && !u.hot {
		u.hot = true
		h.changed = true
	}
}

// isCheckGuard reports whether the if-condition is the check.Enabled
// debug gate (possibly conjoined with more conditions).
func (h *hotAnalysis) isCheckGuard(cond ast.Expr) bool {
	return isEnabledGuard(h.pkg, cond, h.checkPath)
}

// isEnabledGuard reports whether cond references the Enabled constant of
// the invariant package at checkPath.
func isEnabledGuard(pkg *Package, cond ast.Expr, checkPath string) bool {
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

// isPanicCall reports whether the call is the predeclared panic.
func (h *hotAnalysis) isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := h.pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

// traverse walks one function body propagating hotness. When emit is
// nil it runs in analysis mode, recording promotions into the fixpoint;
// otherwise it reports every hot node to emit.
func (h *hotAnalysis) traverse(body *ast.BlockStmt, hot bool, emit func(ast.Node)) {
	var visit func(n ast.Node, hot bool)
	visit = func(n ast.Node, hot bool) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			// Every literal is its own unit; its body is walked with the
			// unit's hotness, not the enclosing scope's. The literal
			// itself, however, is a closure creation at this site.
			if hot && emit != nil {
				emit(x)
			}
			return
		case *ast.IfStmt:
			if h.isCheckGuard(x.Cond) {
				// Debug-invariant block: cold by definition; the
				// else-branch (if any) keeps the enclosing hotness.
				if x.Else != nil {
					visit(x.Else, hot)
				}
				return
			}
		case *ast.ForStmt, *ast.RangeStmt:
			loop := n.(ast.Stmt)
			lbody := loopBody(loop)
			if emit == nil && !hot && !h.hotLoops[loop] && h.loopTriggersHot(lbody) {
				h.hotLoops[loop] = true
				h.changed = true
			}
			childHot := hot || h.hotLoops[loop]
			switch l := loop.(type) {
			case *ast.ForStmt:
				visit(l.Init, hot)
				visit(l.Cond, hot)
				visit(l.Post, childHot)
			case *ast.RangeStmt:
				visit(l.X, hot)
				if childHot && emit == nil {
					h.recordDecl(l.Key)
					h.recordDecl(l.Value)
				}
			}
			visitChildren(lbody, childHot, visit)
			return
		case *ast.CallExpr:
			if h.isPanicCall(x) {
				return // failure paths may allocate
			}
			if hot {
				if emit == nil {
					h.markCallee(x)
				} else {
					emit(x)
				}
			}
			if _, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				// Immediately-invoked literal: not a closure creation.
				// Its body is walked as its own unit; visit only args.
				for _, a := range x.Args {
					visit(a, hot)
				}
				return
			}
			visitChildren(x, hot, visit)
			return
		case *ast.AssignStmt:
			if hot && emit == nil && x.Tok.String() == ":=" {
				for _, lhs := range x.Lhs {
					h.recordDecl(lhs)
				}
			}
		case *ast.DeclStmt:
			if hot && emit == nil {
				ast.Inspect(x, func(c ast.Node) bool {
					if _, ok := c.(*ast.FuncLit); ok {
						return false
					}
					if id, ok := c.(*ast.Ident); ok {
						h.recordDecl(id)
					}
					return true
				})
			}
		}
		if hot && emit != nil {
			emit(n)
		}
		visitChildren(n, hot, visit)
	}
	visitChildren(body, hot, visit)
}

// walk is the analysis-mode traversal used by the fixpoint.
func (h *hotAnalysis) walk(body *ast.BlockStmt, hot bool) { h.traverse(body, hot, nil) }

// recordDecl marks an identifier expression's object as hot-declared.
func (h *hotAnalysis) recordDecl(e ast.Node) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if obj := h.pkg.Info.Defs[id]; obj != nil {
		h.hotDecl[obj] = true
	}
}

// loopTriggersHot reports whether the loop body (lexically, ignoring
// nested closures and debug guards) calls a kernel entry point or a hot
// function — the mark of a solver iteration loop.
func (h *hotAnalysis) loopTriggersHot(body *ast.BlockStmt) bool {
	found := false
	var scan func(n ast.Node)
	scan = func(n ast.Node) {
		if n == nil || found {
			return
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.IfStmt:
			if h.isCheckGuard(x.Cond) {
				scan(x.Else)
				return
			}
		case *ast.CallExpr:
			if h.isPanicCall(x) {
				return
			}
			if h.isHotCall(x) {
				found = true
				return
			}
		}
		visitChildren(n, false, func(c ast.Node, _ bool) { scan(c) })
	}
	scan(body)
	return found
}

// HotRegions visits every statement and expression of the package that
// executes per iteration, invoking fn once per hot node.
func (h *hotAnalysis) HotRegions(fn func(n ast.Node)) {
	for _, u := range h.units {
		h.traverse(u.body, u.hot, fn)
	}
}

// loopBody returns the body block of a for or range statement.
func loopBody(loop ast.Stmt) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// visitChildren applies visit to every direct child of n with the given
// hotness, without revisiting n itself.
func visitChildren(n ast.Node, hot bool, visit func(ast.Node, bool)) {
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
		visit(c, hot)
		return false
	})
}
