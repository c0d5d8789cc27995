package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// OperatorSeam confines concrete storage knowledge to the storage seam.
// A solver-stack level operator is a *sparse.CSR or a *sparse.BSR, chosen
// per level; code that type-asserts or type-switches on the concrete
// matrix types ties itself to one of them, so the choice stops being a
// kernel choice. Outside the seam — the sparse package itself and the
// multigrid level plumbing, which by design choose per-level storage —
// consumers must program against the sparse capability interface
// (RowScanner) or go through the sanctioned sparse.AsCSR helper.
type OperatorSeam struct {
	// SparsePath is the import path of the sparse package (default
	// prometheus/internal/sparse; fixtures override it).
	SparsePath string
	// Allowed lists the package paths permitted to inspect concrete
	// storage (default: the sparse package itself and
	// prometheus/internal/multigrid). A path also covers its
	// sub-packages.
	Allowed []string
}

// concreteStorageTypes are the storage types the seam protects.
var concreteStorageTypes = []string{"CSR", "BSR"}

// Name implements Rule.
func (OperatorSeam) Name() string { return "operator-seam" }

// Check implements Rule.
func (r OperatorSeam) Check(pkg *Package) []Issue {
	spath := r.SparsePath
	if spath == "" {
		spath = "prometheus/internal/sparse"
	}
	allowed := r.Allowed
	if allowed == nil {
		allowed = []string{spath, "prometheus/internal/multigrid"}
	}
	for _, p := range allowed {
		if pkg.Path == p || strings.HasPrefix(pkg.Path, p+"/") {
			return nil
		}
	}
	var out []Issue
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeAssertExpr:
				if x.Type == nil { // x.(type) inside a type switch
					return true
				}
				if name := r.storageType(pkg, spath, x.Type); name != "" {
					out = append(out, issue(pkg, x, r.Name(), Error,
						"type assertion on concrete storage type *sparse.%s outside the storage seam; use a sparse capability interface or sparse.AsCSR", name))
				}
			case *ast.TypeSwitchStmt:
				for _, c := range x.Body.List {
					cc, ok := c.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, te := range cc.List {
						if name := r.storageType(pkg, spath, te); name != "" {
							out = append(out, issue(pkg, te, r.Name(), Error,
								"type switch case on concrete storage type *sparse.%s outside the storage seam; use a sparse capability interface or sparse.AsCSR", name))
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// storageType returns the concrete storage type name the expression
// denotes (possibly behind a pointer), or "" if it is not one.
func (r OperatorSeam) storageType(pkg *Package, spath string, te ast.Expr) string {
	t := pkg.Info.Types[te].Type
	if t == nil {
		return ""
	}
	for _, name := range concreteStorageTypes {
		if isNamedFrom(t, spath, name) {
			return name
		}
	}
	// isNamedFrom unwraps pointers itself, but alias spellings
	// (prometheus.CSR) resolve through types.Alias; unalias and retry.
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	t = types.Unalias(t)
	for _, name := range concreteStorageTypes {
		if isNamedFrom(t, spath, name) {
			return name
		}
	}
	return ""
}

// isNamedFrom reports whether t (possibly behind a pointer) is the named
// type path.name.
func isNamedFrom(t types.Type, path, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}
