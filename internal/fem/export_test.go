package fem

import "prometheus/internal/sparse"

// AssembleBlockTangentBuilder is the reference the pattern-first assembly
// is pinned to: the same element loop poured block by block into a
// sparse.BlockBuilder (a map per node row, sorted at Build), the way
// AssembleTangent was written before the pattern came first.
func AssembleBlockTangentBuilder(p *Problem, u []float64) (*sparse.BSR, []float64, error) {
	return assembleBuilder(p, u, -1)
}

// AssembleUnmirrored is AssembleBlockTangentBuilder with a seeded break in
// the element kernel: element broken's tangent leaves its node-pair block
// (1, 0) unmirrored (Unmirror). The symmetry checks must catch it.
func AssembleUnmirrored(p *Problem, u []float64, broken int) (*sparse.BSR, []float64, error) {
	return assembleBuilder(p, u, broken)
}

// ElementTangent integrates element e of p at u and returns its tangent,
// row-major, and its internal force.
func ElementTangent(p *Problem, e int, u []float64) (ke, fe []float64, err error) {
	ndof := 3 * p.M.Type.NodesPerElem()
	ke, fe = make([]float64, ndof*ndof), make([]float64, ndof)
	_, err = p.integrateElement(e, u, newElemScratch(p.M.Type), ke, fe)
	return ke, fe, err
}

// Unmirror clears the node-pair block (1, 0) of an element tangent with
// ndof rows: the block as it stands before the mirror copies block (0, 1)
// into it.
func Unmirror(ke []float64, ndof int) {
	for i := 3; i < 6; i++ {
		clear(ke[i*ndof : i*ndof+3])
	}
}

// assembleBuilder is AssembleBlockTangentBuilder, with element broken's
// tangent unmirrored when broken is an element.
func assembleBuilder(p *Problem, u []float64, broken int) (*sparse.BSR, []float64, error) {
	nv := p.M.NumVerts()
	kb := sparse.NewBlockBuilder(nv, nv, 3)
	fint := make([]float64, p.M.NumDOF())
	ndof := 3 * p.M.Type.NodesPerElem()
	scr := newElemScratch(p.M.Type)
	ke := make([]float64, ndof*ndof)
	fe := make([]float64, ndof)
	var blk [9]float64
	for e, conn := range p.M.Elems {
		if _, err := p.integrateElement(e, u, scr, ke, fe); err != nil {
			return nil, nil, err
		}
		if e == broken {
			Unmirror(ke, ndof)
		}
		for a, va := range conn {
			for i := 0; i < 3; i++ {
				fint[3*va+i] += fe[3*a+i]
			}
			for bn, vb := range conn {
				for i := 0; i < 3; i++ {
					copy(blk[3*i:3*i+3], ke[(3*a+i)*ndof+3*bn:])
				}
				kb.AddBlock(va, vb, blk[:])
			}
		}
	}
	return kb.Build(), fint, nil
}

// ReduceLoad is Reduce with its load map applied to f at scale 1: the
// reduced matrix and right-hand side of one load.
func ReduceLoad(c *Constraints, k *sparse.BSR, f []float64, m *DofMap) (*sparse.CSR, []float64) {
	kr, lm := c.Reduce(k, m)
	fr := make([]float64, m.NumFree())
	lm.Apply(fr, f, 1)
	return kr, fr
}
