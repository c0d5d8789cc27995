package krylov

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/la"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

func laplace2D(n int) *sparse.CSR {
	id := func(i, j int) int { return i*n + j }
	b := sparse.NewBuilder(n*n, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			me := id(i, j)
			b.Add(me, me, 4)
			if i > 0 {
				b.Add(me, id(i-1, j), -1)
			}
			if i < n-1 {
				b.Add(me, id(i+1, j), -1)
			}
			if j > 0 {
				b.Add(me, id(i, j-1), -1)
			}
			if j < n-1 {
				b.Add(me, id(i, j+1), -1)
			}
		}
	}
	return b.Build()
}

func relResidual(a *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.Residual(b, x, r)
	return la.Norm2(r) / la.Norm2(b)
}

func TestCGSolves(t *testing.T) {
	a := laplace2D(12)
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.Float64()*2 - 1
	}
	x := make([]float64, a.NRows)
	res := CG(a, b, x, 1e-8, 1000)
	if !res.Converged {
		t.Fatalf("CG did not converge in %d its", res.Iterations)
	}
	if rr := relResidual(a, x, b); rr > 1e-8 {
		t.Fatalf("relative residual = %v", rr)
	}
	if res.Flops <= 0 || len(res.Residuals) != res.Iterations+1 {
		t.Fatalf("instrumentation wrong: flops=%d len(res)=%d its=%d", res.Flops, len(res.Residuals), res.Iterations)
	}
	// Residual history must be recorded (CG residuals are not monotone in
	// general, but the last must meet the tolerance).
	last := res.Residuals[len(res.Residuals)-1]
	if last > 1e-8*la.Norm2(b) {
		t.Fatalf("recorded final residual %v inconsistent", last)
	}
}

func TestPCGJacobiFasterThanCG(t *testing.T) {
	// On a badly scaled SPD system, Jacobi preconditioning must reduce
	// iterations.
	n := 300
	bld := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, 4*float64(i)/float64(n-1)) // 1..1e4
		bld.Add(i, i, 2*scale)
		if i+1 < n {
			s2 := math.Min(scale, math.Pow(10, 4*float64(i+1)/float64(n-1)))
			bld.Add(i, i+1, -0.9*s2)
			bld.Add(i+1, i, -0.9*s2)
		}
	}
	a := bld.Build()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x1 := make([]float64, n)
	plain := CG(a, b, x1, 1e-8, 10000)
	x2 := make([]float64, n)
	pc := PCG(a, b, x2, diagPrecon{a.Diag()}, 1e-8, 10000)
	if !plain.Converged || !pc.Converged {
		t.Fatalf("convergence: plain %v pcg %v", plain.Converged, pc.Converged)
	}
	if pc.Iterations >= plain.Iterations {
		t.Fatalf("Jacobi PCG (%d its) should beat CG (%d its)", pc.Iterations, plain.Iterations)
	}
}

func TestPCGZeroRHS(t *testing.T) {
	a := laplace2D(4)
	b := make([]float64, a.NRows)
	x := make([]float64, a.NRows)
	res := CG(a, b, x, 1e-10, 100)
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS should converge immediately: %+v", res)
	}
}

func TestPCGStartsFromNonzeroX(t *testing.T) {
	a := laplace2D(8)
	rng := rand.New(rand.NewSource(2))
	xTrue := make([]float64, a.NRows)
	for i := range xTrue {
		xTrue[i] = rng.Float64()
	}
	b := make([]float64, a.NRows)
	a.MulVec(xTrue, b)
	// Start close to the solution: should converge in few iterations.
	x := append([]float64(nil), xTrue...)
	x[0] += 1e-6
	res := CG(a, b, x, 1e-10, 100)
	if !res.Converged || res.Iterations > 20 {
		t.Fatalf("warm start ignored: %d its", res.Iterations)
	}
}

func TestGMRESSolvesSymmetric(t *testing.T) {
	a := laplace2D(10)
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = rng.Float64()
	}
	x := make([]float64, a.NRows)
	res := GMRES(a, b, x, nil, 30, 1e-8, 2000)
	if !res.Converged {
		t.Fatal("GMRES did not converge")
	}
	if rr := relResidual(a, x, b); rr > 1e-6 {
		t.Fatalf("relative residual = %v", rr)
	}
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	// Convection-diffusion-like nonsymmetric system (CG would fail).
	n := 80
	bld := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		bld.Add(i, i, 3)
		if i+1 < n {
			bld.Add(i, i+1, -2) // upwind bias
			bld.Add(i+1, i, -0.5)
		}
	}
	a := bld.Build()
	rng := rand.New(rand.NewSource(4))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.Float64()
	}
	b := make([]float64, n)
	a.MulVec(xTrue, b)
	x := make([]float64, n)
	res := GMRES(a, b, x, nil, 20, 1e-10, 2000)
	if !res.Converged {
		t.Fatal("GMRES did not converge")
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v want %v", i, x[i], xTrue[i])
		}
	}
}

func TestGMRESWithPreconditioner(t *testing.T) {
	a := laplace2D(20)
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.NRows)
	plain := GMRES(a, b, x, nil, 25, 1e-8, 3000)
	x2 := make([]float64, a.NRows)
	// The diagonal is constant, so pointwise Jacobi would only rescale;
	// four graph-partitioned blocks solved exactly precondition for real.
	part := graph.GreedyPartition(graph.NewFromPattern(a.NRows, a.RowPtr, a.ColIdx), 4)
	bj, err := smooth.NewDomainBlockJacobi(a, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	pc := GMRES(a, b, x2, bj, 25, 1e-8, 3000)
	if !plain.Converged || !pc.Converged {
		t.Fatal("convergence failure")
	}
	if pc.Iterations >= plain.Iterations {
		t.Fatalf("preconditioned GMRES (%d) should beat plain (%d)", pc.Iterations, plain.Iterations)
	}
	if rr := relResidual(a, x2, b); rr > 1e-6 {
		t.Fatalf("residual = %v", rr)
	}
}

func TestCGIterationsScaleWithCondition(t *testing.T) {
	// CG iteration count grows with grid size on the Laplacian — the
	// baseline multigrid beats (motivation for the paper's solver).
	its := func(n int) int {
		a := laplace2D(n)
		b := make([]float64, a.NRows)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, a.NRows)
		res := CG(a, b, x, 1e-8, 100000)
		if !res.Converged {
			t.Fatal("no convergence")
		}
		return res.Iterations
	}
	if i8, i24 := its(8), its(24); i24 <= i8 {
		t.Fatalf("CG iterations should grow with size: %d vs %d", i8, i24)
	}
}

func TestFPCGMatchesPCGSymmetric(t *testing.T) {
	// With a symmetric fixed preconditioner, flexible CG reproduces PCG.
	a := laplace2D(15)
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	m := diagPrecon{a.Diag()}
	x1 := make([]float64, a.NRows)
	r1 := PCG(a, b, x1, m, 1e-10, 5000)
	x2 := make([]float64, a.NRows)
	r2 := FPCG(a, b, x2, m, 1e-10, 5000)
	if !r1.Converged || !r2.Converged {
		t.Fatal("convergence failure")
	}
	if d := r2.Iterations - r1.Iterations; d > 2 || d < -2 {
		t.Fatalf("FPCG %d its vs PCG %d its", r2.Iterations, r1.Iterations)
	}
}

func TestFPCGHandlesVariablePreconditioner(t *testing.T) {
	// A deliberately inconsistent (iteration-dependent) preconditioner:
	// plain PCG loses orthogonality; flexible CG must still converge.
	a := laplace2D(12)
	b := make([]float64, a.NRows)
	for i := range b {
		b[i] = 1
	}
	vp := &variablePrecon{d: a.Diag()}
	x := make([]float64, a.NRows)
	res := FPCG(a, b, x, vp, 1e-8, 5000)
	if !res.Converged {
		t.Fatalf("FPCG with variable preconditioner stalled at %v", res.Residuals[len(res.Residuals)-1])
	}
	if rr := relResidual(a, x, b); rr > 1e-8 {
		t.Fatalf("relative residual = %v", rr)
	}
}

// diagPrecon is the Jacobi preconditioner z = D⁻¹·r.
type diagPrecon struct{ d []float64 }

func (p diagPrecon) Apply(r, z []float64) {
	for i := range z {
		z[i] = r[i] / p.d[i]
	}
}

// variablePrecon scales the Jacobi preconditioner differently every call.
type variablePrecon struct {
	d     []float64
	calls int
}

func (v *variablePrecon) Apply(r, z []float64) {
	v.calls++
	s := 1.0 + 0.5*float64(v.calls%3)
	for i := range z {
		z[i] = s * r[i] / v.d[i]
	}
}

func TestFPCGZeroRHS(t *testing.T) {
	a := laplace2D(4)
	b := make([]float64, a.NRows)
	x := make([]float64, a.NRows)
	res := FPCG(a, b, x, nil, 1e-10, 10)
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS: %+v", res)
	}
}

// nanPrecon poisons every preconditioned residual.
type nanPrecon struct{}

func (nanPrecon) Apply(r, z []float64) {
	for i := range z {
		z[i] = math.NaN()
	}
}

// zeroPrecon returns no search direction at all.
type zeroPrecon struct{}

func (zeroPrecon) Apply(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
}

// TestCGStopsOnPoison: NaN fails every ordered comparison, so a poisoned
// solve must be stopped by tests written for it — not run max_iters of
// NaN arithmetic, and not read Inf <= rtol·Inf as convergence. Every way
// out of the loop names itself in Result.Reason, and only convergence sets
// Converged.
func TestCGStopsOnPoison(t *testing.T) {
	clean := laplace2D(6)
	poisoned := laplace2D(6)
	poisoned.Val[7] = math.NaN()
	negative := laplace2D(6)
	negative.Scale(-1)
	ones := make([]float64, clean.NRows)
	huge := make([]float64, clean.NRows)
	for i := range ones {
		ones[i], huge[i] = 1, 1e200
	}
	for _, tc := range []struct {
		name     string
		a        *sparse.CSR
		b        []float64
		m        Preconditioner
		budget   int // maxIter handed to the solver
		maxIters int // most iterations the stop may take
		reason   StopReason
	}{
		{"NaN entry in the operator", poisoned, ones, nil, 1000, 1, StopNonFinite},
		{"right-hand side whose norm overflows", clean, huge, nil, 1000, 1, StopNonFinite},
		{"NaN from the preconditioner", clean, ones, nanPrecon{}, 1000, 0, StopNonFinite},
		{"negative definite operator", negative, ones, nil, 1000, 0, StopIndefinite},
		{"preconditioner that returns no direction", clean, ones, zeroPrecon{}, 1000, 0, StopBreakdown},
		{"iteration budget of two", clean, ones, nil, 2, 2, StopMaxIters},
		{"healthy solve", clean, ones, nil, 1000, 1000, StopConverged},
	} {
		for name, solve := range map[string]func(a sparse.Operator, b, x []float64, m Preconditioner, rtol float64, maxIter int) Result{
			"PCG": PCG, "FPCG": FPCG,
		} {
			res := solve(tc.a, tc.b, make([]float64, clean.NRows), tc.m, 1e-8, tc.budget)
			if res.Reason != tc.reason || res.Converged != (tc.reason == StopConverged) || res.Iterations > tc.maxIters {
				t.Errorf("%s, %s: stopped as %v (converged=%v) after %d iterations, want %v within %d",
					tc.name, name, res.Reason, res.Converged, res.Iterations, tc.reason, tc.maxIters)
			}
		}
	}
	// A monitor's veto is the one stop only the monitored entry point has.
	res := FPCGMonitoredCtx(context.Background(), clean, ones, make([]float64, clean.NRows), nil, 1e-8, 1000,
		func(iter int, _ float64) bool { return iter < 3 })
	if res.Reason != StopCancelled || res.Converged || res.Iterations != 3 {
		t.Errorf("vetoing monitor: stopped as %v (converged=%v) after %d iterations, want %v after 3",
			res.Reason, res.Converged, res.Iterations, StopCancelled)
	}
}
