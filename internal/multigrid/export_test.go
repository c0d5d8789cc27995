package multigrid

import "prometheus/internal/sparse"

// scalarBuild is Build for the scalar-kernel reference hierarchy the
// blocked one is pinned to: the same hierarchy with every level in scalar
// rows, a BSR fine operator expanded first, and every Galerkin level the
// scalar expansion of the layout Build forms it in, fill and pinned
// couplings stored as zeros. It always makes a new plan (plan is not
// read). Blocking is a kernel choice, so a hierarchy Build makes must agree
// with the reference in solution bits, residual history, iteration count
// and smoother partitions.
func scalarBuild(_ *Plan, fine sparse.Operator, rs []*sparse.CSR, opts Options) (*MG, *Plan, error) {
	c := sparse.AsCSR(fine)
	p := newPlan(c, rs, opts.withDefaults())
	p.scalar = true
	mg, err := p.fill(c)
	return mg, p, err
}
