package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ResourceRelease generalizes obs-discipline's Start/End must-pair
// analysis to the service layer's acquire/release protocols: admission
// slots (Acquire/Release), session checkouts (Checkout/Checkin), cache
// references (Acquire/Release) and leased preconditioners
// (Checkout/Checkin). Within each function:
//
//   - every call to a method named Acquire, TryAcquire or Checkout
//     creates an obligation keyed by the receiver expression;
//   - the obligation is met by a call to Release, Checkin or Close on
//     the same receiver. A deferred release (directly, or inside a
//     deferred closure) covers every path including panics and is
//     always accepted;
//   - a non-deferred release is accepted only when no return statement
//     sits between the acquire and the last release — except returns
//     inside an if-block testing the acquire's own error result, which
//     are the failure path where nothing was acquired;
//   - an acquire whose result is returned to the caller or stored into
//     a field transfers ownership out of the function and is exempt —
//     the obligation moves to the caller;
//   - an acquire whose non-error result is discarded (expression
//     statement) leaks by construction and is always flagged.
type ResourceRelease struct {
	// Services overrides the service-package list (defaults to the
	// tree's serve/promserve layer); fixtures point it at themselves.
	Services []string
}

// Name returns the rule identifier.
func (ResourceRelease) Name() string { return "resource-release" }

// acquire/release method-name protocol.
var (
	acquireNames = map[string]bool{"Acquire": true, "TryAcquire": true, "Checkout": true}
	releaseNames = map[string]bool{"Release": true, "Checkin": true, "Close": true}
)

// Check analyzes one package.
func (r ResourceRelease) Check(pkg *Package) []Issue {
	if !pathInSet(pkg.Path, serviceSet(r.Services)) {
		return nil
	}
	var issues []Issue
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			issues = append(issues, r.checkFunc(pkg, fd)...)
		}
	}
	sortIssues(issues)
	return issues
}

// acqSite is one acquire call and its tracking state.
type acqSite struct {
	call    *ast.CallExpr
	recv    string         // rendered receiver expression — the pairing key
	name    string         // Acquire / TryAcquire / Checkout
	errObj  types.Object   // the error variable it assigns, if any
	results []types.Object // non-error result variables it assigns
	expr    bool           // call sits in an expression statement (results discarded)
}

// relSite is one release call.
type relSite struct {
	call     *ast.CallExpr
	recv     string
	deferred bool
}

// checkFunc runs the obligation analysis over one function declaration.
func (r ResourceRelease) checkFunc(pkg *Package, fd *ast.FuncDecl) []Issue {
	deferred := deferredCalls(fd.Body)

	var acquires []*acqSite
	var releases []relSite
	var returns []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			returns = append(returns, x)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				if site := r.acquireSite(pkg, call); site != nil {
					site.expr = true
					acquires = append(acquires, site)
				}
			}
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 {
				if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok {
					if site := r.acquireSite(pkg, call); site != nil {
						bindResults(pkg, x.Lhs, site)
						acquires = append(acquires, site)
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if ok && releaseNames[sel.Sel.Name] {
				releases = append(releases, relSite{
					call:     x,
					recv:     types.ExprString(sel.X),
					deferred: deferred[x],
				})
			}
		}
		return true
	})
	if len(acquires) == 0 {
		return nil
	}

	// Ownership transfers: result returned or stored into a field.
	escaped := escapedObjects(pkg, fd.Body)
	// Error-guard bodies: returns inside them are the failure path.
	exempt := errGuardRanges(pkg, fd.Body, acquires)

	var issues []Issue
	for _, acq := range acquires {
		if acq.expr && len(acq.results) == 0 && callHasNonErrorResult(pkg, acq.call) {
			issues = append(issues, issue(pkg, acq.call, r.Name(), Error,
				"%s result discarded: the acquired resource can never be released", acq.name))
			continue
		}
		transfers := false
		for _, obj := range acq.results {
			if escaped[obj] {
				transfers = true
			}
		}
		if transfers {
			continue
		}
		var matched []relSite
		anyDeferred := false
		for _, rel := range releases {
			if rel.recv != acq.recv {
				continue
			}
			matched = append(matched, rel)
			if rel.deferred {
				anyDeferred = true
			}
		}
		if anyDeferred {
			continue
		}
		if len(matched) == 0 {
			issues = append(issues, issue(pkg, acq.call, r.Name(), Error,
				"%s on %q is never released in this function; defer the release immediately after a successful acquire", acq.name, acq.recv))
			continue
		}
		lastEnd := matched[0].call.End()
		for _, rel := range matched[1:] {
			if rel.call.End() > lastEnd {
				lastEnd = rel.call.End()
			}
		}
		for _, ret := range returns {
			if ret.Pos() <= acq.call.End() || ret.Pos() >= lastEnd {
				continue
			}
			if inRanges(exempt[acq], ret.Pos()) {
				continue
			}
			issues = append(issues, issue(pkg, ret, r.Name(), Error,
				"return between %s on %q and its release leaks the resource on this path; defer the release instead", acq.name, acq.recv))
		}
	}
	return issues
}

// acquireSite classifies a call as an acquire, or returns nil.
func (ResourceRelease) acquireSite(pkg *Package, call *ast.CallExpr) *acqSite {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !acquireNames[sel.Sel.Name] {
		return nil
	}
	// Require a method call (receiver has a value); package-qualified
	// functions like ctx.Acquire-less shapes resolve the same way, and
	// a package qualifier is fine to track too — the pairing key is the
	// rendered expression either way.
	return &acqSite{call: call, recv: types.ExprString(sel.X), name: sel.Sel.Name}
}

// bindResults records which variables the acquire assigns: the error
// result (for guard exemptions) and the non-error results (for escape
// analysis).
func bindResults(pkg *Package, lhs []ast.Expr, site *acqSite) {
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if isErrorType(obj.Type()) {
			site.errObj = obj
		} else {
			site.results = append(site.results, obj)
		}
	}
}

// callHasNonErrorResult reports whether the call returns any value that
// is not an error — i.e. discarding its results loses a resource, not
// just a status.
func callHasNonErrorResult(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if !isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		if t == nil || t.String() == "()" {
			return false
		}
		return !isErrorType(tv.Type)
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// deferredCalls maps every call that runs under a defer: the deferred
// call itself, and every call inside a deferred closure body.
func deferredCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		out[d.Call] = true
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				if call, ok := inner.(*ast.CallExpr); ok {
					out[call] = true
				}
				return true
			})
		}
		return true
	})
	return out
}

// escapedObjects finds result variables whose ownership leaves the
// function: returned to the caller, or stored into a selector/index
// target (a field, map or global slot).
func escapedObjects(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	use := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		return pkg.Info.Uses[id]
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if obj := use(res); obj != nil {
					out[obj] = true
				}
			}
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				switch ast.Unparen(l).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					if i < len(x.Rhs) {
						if obj := use(x.Rhs[i]); obj != nil {
							out[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// errGuardRanges maps each acquire to the bodies of if-statements that
// test its error result — the failure paths where the acquire did not
// happen, so returning without a release is correct there.
func errGuardRanges(pkg *Package, body *ast.BlockStmt, acquires []*acqSite) map[*acqSite][]posRange {
	out := make(map[*acqSite][]posRange)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Body == nil {
			return true
		}
		for _, acq := range acquires {
			if acq.errObj == nil {
				continue
			}
			if condUses(pkg, ifs.Cond, acq.errObj) {
				out[acq] = append(out[acq], posRange{ifs.Body.Pos(), ifs.Body.End()})
			}
		}
		return true
	})
	return out
}

// posRange is a half-open source position interval.
type posRange struct{ lo, hi token.Pos }

// inRanges reports whether the position falls inside any of the ranges.
func inRanges(rs []posRange, p token.Pos) bool {
	for _, r := range rs {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

// condUses reports whether the condition expression mentions obj.
func condUses(pkg *Package, cond ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
