package multigrid

import "prometheus/internal/sparse"

// scalarBuild is Build for the all-scalar reference hierarchy the blocked
// one is pinned to: every level in the scalar rows setup reads, a BSR fine
// operator expanded first, no level copied into blocks. It always makes a
// new plan (plan is not read). Blocking is a kernel choice, so a hierarchy
// Build makes must agree with the reference in solution bits, residual
// history, iteration count and smoother partitions.
func scalarBuild(_ *Plan, fine sparse.Operator, rs []*sparse.CSR, opts Options) (*MG, *Plan, error) {
	c := sparse.AsCSR(fine)
	p := newPlan(c, rs, opts.withDefaults())
	p.scalar = true
	mg, err := p.fill(c)
	return mg, p, err
}

// newScalar is scalarBuild without a plan, as New is Build without one.
func newScalar(fine sparse.Operator, rs []*sparse.CSR, opts Options) (*MG, error) {
	mg, _, err := scalarBuild(nil, fine, rs, opts)
	return mg, err
}
