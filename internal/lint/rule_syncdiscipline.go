package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SyncDiscipline keeps the tree at one parallel runtime. The compute
// packages contain no go statement, no channel type or operation (send,
// receive, close, range over a channel), no select and no use of sync or
// sync/atomic, anywhere in the package: they parallelize by calling
// internal/pool, and a mutex or channel inside a kernel is a design error
// whether or not it is correct. internal/par is in the set too: its
// simulated ranks run as serial rounds, so it needs no synchronization.
// Where synchronization does live — the pool — it is checked by running
// it: the race jobs, check.Owners and TestKernelContract.
type SyncDiscipline struct {
	// Compute is the banned package set (a path covers its
	// sub-packages); nil means defaultComputePackages.
	Compute []string
}

func defaultComputePackages() []string {
	return []string{
		"prometheus/internal/sparse",
		"prometheus/internal/la",
		"prometheus/internal/fem",
		"prometheus/internal/smooth",
		"prometheus/internal/krylov",
		"prometheus/internal/multigrid",
		"prometheus/internal/core",
		"prometheus/internal/delaunay",
		"prometheus/internal/graph",
		"prometheus/internal/mesh",
		"prometheus/internal/topo",
		"prometheus/internal/par",
	}
}

// Name implements Rule.
func (SyncDiscipline) Name() string { return "sync-discipline" }

// Check implements Rule.
func (r SyncDiscipline) Check(pkg *Package) []Issue {
	compute := r.Compute
	if compute == nil {
		compute = defaultComputePackages()
	}
	if !pathInSet(pkg.Path, compute) {
		return nil
	}
	var out []Issue
	flag := func(n ast.Node, what string) {
		out = append(out, issue(pkg, n, r.Name(), Error,
			"%s in compute package %s; kernels parallelize through internal/pool, not by synchronizing themselves", what, pkg.Path))
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				flag(x, "go statement")
			case *ast.ChanType:
				flag(x, "channel type")
			case *ast.SendStmt:
				flag(x, "channel send")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					flag(x, "channel receive")
				}
			case *ast.SelectStmt:
				flag(x, "select statement")
			case *ast.RangeStmt:
				if t := pkg.Info.TypeOf(x.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						flag(x, "range over a channel")
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
					if _, builtin := pkg.Info.Uses[id].(*types.Builtin); builtin {
						flag(x, "channel close")
					}
				}
			case *ast.SelectorExpr:
				if obj := pkg.Info.Uses[x.Sel]; obj != nil && obj.Pkg() != nil {
					if path := obj.Pkg().Path(); path == "sync" || path == "sync/atomic" {
						flag(x, "use of "+obj.Pkg().Name()+"."+syncName(obj))
					}
				}
			}
			return true
		})
	}
	return out
}

// syncName renders a sync or sync/atomic object as Mutex or Mutex.Lock.
func syncName(obj types.Object) string {
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
	return obj.Name()
}
