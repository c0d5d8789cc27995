package lint

import "testing"

// sparseSeamSrc is a miniature of internal/sparse: the operator
// interface, one capability interface, and the two concrete storage
// types the seam protects.
const sparseSeamSrc = `package sparse

type Operator interface {
	Rows() int
}

type RowScanner interface {
	At(i, j int) float64
}

type CSR struct{ n int }

func (a *CSR) Rows() int { return a.n }

type BSR struct{ n int }

func (a *BSR) Rows() int { return a.n }
`

func sparseSeamDep() fixtureDep { return fixtureDep{path: "sparse", src: sparseSeamSrc} }

func TestOperatorSeam(t *testing.T) {
	pkg := checkFixtureWith(t, []fixtureDep{sparseSeamDep()}, `package fixture

import "sparse"

func consume(a sparse.Operator) int {
	if _, ok := a.(*sparse.CSR); ok { // line 6: comma-ok still inspects storage: flagged
		return 1
	}
	b := a.(*sparse.BSR) // line 9: flagged
	_ = b
	switch a.(type) {
	case *sparse.CSR: // line 12: flagged
		return 2
	case *sparse.BSR: // line 14: flagged
		return 3
	case sparse.RowScanner: // capability interface: fine
		return 4
	}
	if s, ok := a.(sparse.RowScanner); ok { // capability interface: fine
		return int(s.At(0, 0))
	}
	return 0
}
`)
	got := OperatorSeam{SparsePath: "sparse"}.Check(pkg)
	if !sameLines(got, 6, 9, 12, 14) {
		t.Errorf("operator-seam lines = %v, want [6 9 12 14]", lines(got))
	}
}

func TestOperatorSeamExemptsSeamPackages(t *testing.T) {
	pkg := checkFixtureWith(t, []fixtureDep{sparseSeamDep()}, `package fixture

import "sparse"

func narrow(a sparse.Operator) bool {
	_, ok := a.(*sparse.CSR)
	return ok
}
`)
	if got := (OperatorSeam{SparsePath: "sparse", Allowed: []string{"fixture"}}).Check(pkg); len(got) != 0 {
		t.Errorf("seam package flagged: %v", got)
	}
	// Sub-packages of an allowed path are covered too.
	if got := (OperatorSeam{SparsePath: "sparse", Allowed: []string{"fix"}}).Check(pkg); len(got) == 0 {
		t.Error("unrelated prefix exempted the package (want prefix match on path segments only)")
	}
}
