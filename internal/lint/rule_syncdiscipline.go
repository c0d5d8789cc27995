package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// SyncDiscipline enforces where raw synchronization may appear on the
// per-iteration path. Raw synchronization is any channel operation
// (send, receive, range-over-channel, close, select), goroutine spawn,
// or call into sync / sync/atomic.
//
// The discipline has two tiers:
//
//   - Compute packages (sparse, smooth, krylov, multigrid) must contain
//     no raw synchronization in hot regions at all. Kernels express
//     parallelism by calling the substrate (pool.Dispatch, par
//     collectives); a mutex or channel inside an SpMV row loop is a
//     design error regardless of correctness.
//
//   - Substrate packages (par, pool) may synchronize on the hot path,
//     but only inside methods of package-local types — the audited
//     protocol surface — or on a credit channel (a package-local
//     channel created with `make(chan T, N)` for a constant N >= 1,
//     whose buffer bounds the outstanding tokens).
//
// Hotness comes from the same loop-nesting dataflow as hotloop-alloc,
// so blocks guarded by check.Enabled are exempt by construction.
type SyncDiscipline struct {
	// Compute is the zero-synchronization package set; nil means the
	// solver compute kernels (sparse, smooth, krylov, multigrid).
	Compute []string
	// Substrate is the sanctioned-synchronization package set; nil
	// means the communication substrate (par, pool).
	Substrate []string
	// Roots adds hot entry-point names beyond DefaultHotRoots.
	Roots []string
	// CheckPath names the debug-gate package; empty means
	// prometheus/internal/check.
	CheckPath string
}

func defaultComputePackages() []string {
	return []string{
		"prometheus/internal/sparse",
		"prometheus/internal/smooth",
		"prometheus/internal/krylov",
		"prometheus/internal/multigrid",
	}
}

func defaultSubstratePackages() []string {
	return []string{
		"prometheus/internal/par",
		"prometheus/internal/pool",
	}
}

// Name implements Rule.
func (*SyncDiscipline) Name() string { return "sync-discipline" }

// Check implements Rule.
func (r *SyncDiscipline) Check(pkg *Package) []Issue {
	compute := r.Compute
	if compute == nil {
		compute = defaultComputePackages()
	}
	substrate := r.Substrate
	if substrate == nil {
		substrate = defaultSubstratePackages()
	}
	inCompute := pathInSet(pkg.Path, compute)
	inSubstrate := pathInSet(pkg.Path, substrate)
	if !inCompute && !inSubstrate {
		return nil
	}
	checkPath := r.CheckPath
	if checkPath == "" {
		checkPath = "prometheus/internal/check"
	}
	kernels := append(append([]string{}, compute...), substrate...)
	roots := append(DefaultHotRoots(), r.Roots...)
	h := analyzeHot(pkg, kernels, roots, checkPath)

	hot := make(map[ast.Node]bool)
	h.HotRegions(func(n ast.Node) { hot[n] = true })

	var ops []syncOp
	for _, f := range pkg.Files {
		ops = append(ops, r.collectOps(pkg, h, f, hot)...)
	}

	// A flagged select already covers the sends and receives of its comm
	// clauses; reporting those too would double-count one decision.
	var selects []*ast.SelectStmt
	for _, op := range ops {
		if s, ok := op.node.(*ast.SelectStmt); ok {
			selects = append(selects, s)
		}
	}
	var out []Issue
	for _, op := range ops {
		inSelect := false
		for _, s := range selects {
			if op.node != ast.Node(s) && s.Pos() <= op.node.Pos() && op.node.End() <= s.End() {
				inSelect = true
			}
		}
		if inSelect {
			continue
		}
		if inCompute {
			out = append(out, issue(pkg, op.node, r.Name(), Error,
				"%s on the hot path of compute package %s; kernels must express parallelism through the substrate (pool.Dispatch, par collectives), not synchronize themselves", op.what, pkg.Path))
			continue
		}
		if r.sanctioned(pkg, op) {
			continue
		}
		out = append(out, issue(pkg, op.node, r.Name(), Error,
			"hot-path %s is outside any method of a package-local type and not on a buffered credit channel; substrate synchronization must stay on the audited protocol surface", op.what))
	}
	return out
}

// syncOp is one raw synchronization site found in a hot region.
type syncOp struct {
	node ast.Node
	what string   // human description: "channel send", "sync.Mutex.Lock call", ...
	ch   ast.Expr // the channel operand for send/receive/range/close, else nil
	fd   *ast.FuncDecl
}

// collectOps scans one file for raw synchronization whose node lies in a
// hot region. Loop statements are never emitted by the hot traversal,
// so range-over-channel is detected through its promoted body
// (hotLoops) or its hot channel operand instead.
func (r *SyncDiscipline) collectOps(pkg *Package, h *hotAnalysis, f *ast.File, hot map[ast.Node]bool) []syncOp {
	var ops []syncOp
	var fds []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fds = append(fds, fd)
		}
	}
	enclosing := func(n ast.Node) *ast.FuncDecl {
		for _, fd := range fds {
			if fd.Pos() <= n.Pos() && n.End() <= fd.End() {
				return fd
			}
		}
		return nil
	}
	add := func(n ast.Node, what string, ch ast.Expr) {
		ops = append(ops, syncOp{node: n, what: what, ch: ch, fd: enclosing(n)})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if hot[n] {
				add(n, "channel send", x.Chan)
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && hot[n] {
				add(n, "channel receive", x.X)
			}
		case *ast.SelectStmt:
			if hot[n] {
				add(n, "select statement", nil)
			}
		case *ast.GoStmt:
			if hot[n] {
				add(n, "goroutine spawn", nil)
			}
		case *ast.RangeStmt:
			if _, isChan := pkg.Info.TypeOf(x.X).Underlying().(*types.Chan); isChan {
				if h.hotLoops[ast.Stmt(x)] || hot[x.X] {
					add(n, "range over channel", x.X)
				}
			}
		case *ast.CallExpr:
			if !hot[n] {
				return true
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(x.Args) == 1 {
					add(n, "channel close", x.Args[0])
				}
				return true
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				obj := pkg.Info.Uses[sel.Sel]
				if obj != nil && obj.Pkg() != nil {
					switch obj.Pkg().Path() {
					case "sync", "sync/atomic":
						add(n, obj.Pkg().Name()+"."+syncCallName(pkg, sel)+" call", nil)
					}
				}
			}
		}
		return true
	})
	return ops
}

// syncCallName renders Mutex.Lock-style names for sync package calls.
func syncCallName(pkg *Package, sel *ast.SelectorExpr) string {
	obj := pkg.Info.Uses[sel.Sel]
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return sel.Sel.Name
}

// sanctioned reports whether a substrate synchronization site is on the
// audited surface: inside a method of a package-local type, or a
// send/receive on a credit channel.
func (r *SyncDiscipline) sanctioned(pkg *Package, op syncOp) bool {
	if fd := op.fd; fd != nil && fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := pkg.Info.TypeOf(fd.Recv.List[0].Type)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == pkg.Types {
			return true
		}
	}
	if op.ch != nil && isCreditChannel(pkg, op.ch) {
		return true
	}
	return false
}

// isCreditChannel reports whether the channel operand resolves to a
// package-local variable or field that is somewhere assigned
// `make(chan T, N)` with a constant capacity N >= 1 — the bounded-token
// idiom whose buffer is the synchronization budget.
func isCreditChannel(pkg *Package, ch ast.Expr) bool {
	var obj types.Object
	switch x := ast.Unparen(ch).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[x.Sel]
	}
	if obj == nil {
		return false
	}
	found := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					if chanObject(pkg, lhs) == obj && makeChanCapOK(pkg, x.Rhs[i]) {
						found = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i >= len(x.Values) {
						break
					}
					if pkg.Info.ObjectOf(name) == obj && makeChanCapOK(pkg, x.Values[i]) {
						found = true
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					if pkg.Info.Uses[id] == obj && makeChanCapOK(pkg, x.Value) {
						found = true
					}
				}
			}
			return true
		})
	}
	return found
}

// makeChanCapOK matches make(chan T, N) with constant N >= 1.
func makeChanCapOK(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if _, ok := pkg.Info.TypeOf(call.Args[0]).Underlying().(*types.Chan); !ok {
		return false
	}
	tv, ok := pkg.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	capN, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && capN >= 1
}
