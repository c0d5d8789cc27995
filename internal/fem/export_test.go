package fem

import "prometheus/internal/sparse"

// AssembleBlockTangentBuilder is the reference the pattern-first assembly
// is pinned to: the same element loop poured block by block into a
// sparse.BlockBuilder (a map per node row, sorted at Build), the way
// AssembleBlockTangent was written before the pattern came first.
func AssembleBlockTangentBuilder(p *Problem, u []float64) (*sparse.BSR, []float64, error) {
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
