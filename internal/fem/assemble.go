package fem

import (
	"fmt"
	"slices"

	"prometheus/internal/geom"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/obs"
	"prometheus/internal/pool"
	"prometheus/internal/sparse"
)

// Problem couples a mesh with its materials and integration-point states.
// It stands in for FEAP: it can compute the element stiffness matrices,
// assemble the global tangent and internal force at a displacement state,
// and commit the material history after a converged load step.
type Problem struct {
	M      *mesh.Mesh
	Models []material.Model   // indexed by element material id
	States [][]material.State // committed state per element per Gauss point
	BBar   bool               // mean-dilatation treatment of the volumetric strain

	// AssembleFlops accumulates an estimate of the floating point work in
	// element integration (the paper's "fine grid creation (FEAP)" phase).
	AssembleFlops int64
}

// NewProblem allocates a Problem with fresh (zero) material states.
func NewProblem(m *mesh.Mesh, models []material.Model, bbar bool) *Problem {
	p := &Problem{M: m, Models: models, BBar: bbar}
	gps, _ := quadrature(m.Type)
	ngp := len(gps)
	p.States = make([][]material.State, m.NumElems())
	for e := range p.States {
		p.States[e] = make([]material.State, ngp)
	}
	return p
}

// elementData holds the geometry of one element at its Gauss points. The
// buffers are sized once for the element type and refilled by geometry, so
// integrating an element allocates nothing.
type elementData struct {
	coords []geom.Vec3 // nodal coordinates
	detJ   []float64
	dndx   [][]geom.Vec3 // physical gradients dN/dx per Gauss point
	vol    float64
	// bbar holds the volume-averaged gradients (B-bar correction).
	bbar []geom.Vec3
}

func newElementData(t mesh.ElemType) *elementData {
	gps, _ := quadrature(t)
	npe := t.NodesPerElem()
	ed := &elementData{
		coords: make([]geom.Vec3, npe),
		detJ:   make([]float64, len(gps)),
		dndx:   make([][]geom.Vec3, len(gps)),
		bbar:   make([]geom.Vec3, npe),
	}
	flat := make([]geom.Vec3, len(gps)*npe)
	for g := range ed.dndx {
		ed.dndx[g] = flat[g*npe : (g+1)*npe]
	}
	return ed
}

// geometry integrates the Jacobians of element e (and the B-bar means)
// into ed.
func (p *Problem) geometry(e int, ed *elementData) error {
	conn := p.M.Elems[e]
	for a, v := range conn {
		ed.coords[a] = p.M.Coords[v]
		ed.bbar[a] = geom.Vec3{}
	}
	ed.vol = 0
	gps, dn := quadrature(p.M.Type)
	for g, gp := range gps {
		dndx := ed.dndx[g]
		detJ := jacobian(ed.coords, dn[g], dndx)
		// Negated so that a NaN Jacobian (a non-finite coordinate) is
		// rejected too.
		if !(detJ > 0) {
			return fmt.Errorf("fem: element %d has non-positive Jacobian %g at gp %d", e, detJ, g)
		}
		ed.detJ[g] = detJ
		w := gp.W * detJ
		ed.vol += w
		for a := range conn {
			ed.bbar[a] = ed.bbar[a].Add(dndx[a].Scale(w))
		}
	}
	for a := range conn {
		ed.bbar[a] = ed.bbar[a].Scale(1 / ed.vol)
	}
	return nil
}

// strainAt computes the (possibly B-bar) strain at Gauss point g of element
// e given the global displacement u.
func (p *Problem) strainAt(e int, ed *elementData, g int, u []float64) material.Voigt {
	conn := p.M.Elems[e]
	var eps material.Voigt
	for a, v := range conn {
		gx := ed.dndx[g][a]
		ux, uy, uz := u[3*v], u[3*v+1], u[3*v+2]
		eps[0] += gx.X * ux
		eps[1] += gx.Y * uy
		eps[2] += gx.Z * uz
		eps[3] += gx.Y*ux + gx.X*uy
		eps[4] += gx.Z*uy + gx.Y*uz
		eps[5] += gx.Z*ux + gx.X*uz
	}
	if p.BBar {
		// Replace the volumetric strain by its element mean.
		div := eps[0] + eps[1] + eps[2]
		var divBar float64
		for a, v := range conn {
			gb := ed.bbar[a]
			divBar += gb.X*u[3*v] + gb.Y*u[3*v+1] + gb.Z*u[3*v+2]
		}
		c := (divBar - div) / 3
		eps[0] += c
		eps[1] += c
		eps[2] += c
	}
	return eps
}

// bMatrix fills the 6×(3n) strain-displacement matrix at Gauss point g,
// with the B-bar volumetric correction when enabled.
func (p *Problem) bMatrix(ed *elementData, g, nNodes int, b [][]float64) {
	for i := range b {
		for j := range b[i] {
			b[i][j] = 0
		}
	}
	for a := 0; a < nNodes; a++ {
		gx := ed.dndx[g][a]
		c := 3 * a
		b[0][c] = gx.X
		b[1][c+1] = gx.Y
		b[2][c+2] = gx.Z
		b[3][c] = gx.Y
		b[3][c+1] = gx.X
		b[4][c+1] = gx.Z
		b[4][c+2] = gx.Y
		b[5][c] = gx.Z
		b[5][c+2] = gx.X
	}
	if p.BBar {
		for a := 0; a < nNodes; a++ {
			gx := ed.dndx[g][a]
			gb := ed.bbar[a]
			d := [3]float64{
				(gb.X - gx.X) / 3,
				(gb.Y - gx.Y) / 3,
				(gb.Z - gx.Z) / 3,
			}
			for row := 0; row < 3; row++ {
				b[row][3*a] += d[0]
				b[row][3*a+1] += d[1]
				b[row][3*a+2] += d[2]
			}
		}
	}
}

// shearComponents lists, for the shear rows of B (strains xy, yz, zx),
// the displacement components whose columns bMatrix fills; the normal
// rows hold one component each, all three with B-bar.
var shearComponents = [3][2]int{{0, 1}, {1, 2}, {0, 2}}

// elemScratch holds the per-worker buffers of element integration.
type elemScratch struct {
	b, db [][]float64
	ed    *elementData
}

func newElemScratch(t mesh.ElemType) *elemScratch {
	ndof := 3 * t.NodesPerElem()
	s := &elemScratch{b: make([][]float64, 6), db: make([][]float64, 6), ed: newElementData(t)}
	for i := range s.b {
		s.b[i] = make([]float64, ndof)
		s.db[i] = make([]float64, ndof)
	}
	return s
}

// integrateElement computes the element tangent (flat, row-major ndof×ndof)
// and internal force of element e at displacement u, returning the flop
// estimate.
func (p *Problem) integrateElement(e int, u []float64, scr *elemScratch, ke, fe []float64) (int64, error) {
	ed := scr.ed
	if err := p.geometry(e, ed); err != nil {
		return 0, err
	}
	nNodes := p.M.Type.NodesPerElem()
	ndof := 3 * nNodes
	model := p.Models[p.M.Mat[e]]
	for i := range fe {
		fe[i] = 0
	}
	for i := range ke {
		ke[i] = 0
	}
	var flops int64
	gps, _ := quadrature(p.M.Type)
	for g, gp := range gps {
		eps := p.strainAt(e, ed, g, u)
		sig, d, _ := model.Update(p.States[e][g], eps)
		p.bMatrix(ed, g, nNodes, scr.b)
		w := gp.W * ed.detJ[g]
		// db = D·B, row by row: onto +0, the terms d[i][k]·b[k][j] for k
		// ascending, over the columns j where row k of B can be nonzero.
		// A sum that starts at +0 never holds -0, so the terms left out,
		// ±0 for a finite D, change no bit.
		for i := 0; i < 6; i++ {
			dbi := scr.db[i][:ndof]
			clear(dbi)
			for k := 0; k < 6; k++ {
				dik, bk := d[i][k], scr.b[k][:ndof]
				switch {
				case k < 3 && p.BBar:
					for j, v := range bk {
						dbi[j] += dik * v
					}
				case k < 3:
					for j := k; j < ndof; j += 3 {
						dbi[j] += dik * bk[j]
					}
				default:
					c0, c1 := shearComponents[k-3][0], shearComponents[k-3][1]
					for j := 0; j+2 < ndof; j += 3 {
						dbi[j+c0] += dik * bk[j+c0]
						dbi[j+c1] += dik * bk[j+c1]
					}
				}
			}
		}
		// ke += w·Bᵀ·(D·B); fe += w·Bᵀ·σ. w·b is rounded once per (i, k),
		// as the product w·b·x already rounded it first.
		for i := 0; i < ndof; i++ {
			krow := ke[i*ndof : (i+1)*ndof]
			for k := 0; k < 6; k++ {
				bki := scr.b[k][i]
				if bki == 0 {
					continue
				}
				wb := w * bki
				fe[i] += wb * sig[k]
				row := scr.db[k][:len(krow)]
				for j, v := range row {
					krow[j] += wb * v
				}
			}
		}
		flops += int64(6*ndof*6*2 + ndof*6*(ndof+1)*2)
	}
	return flops, nil
}

// Element integration runs on the shared worker set, assembleChunk
// elements to a dispatch: their tangents and forces land in one slot each
// of a chunk-long buffer, whoever integrates them, and are drained in
// element order afterwards, so every assembled entry is the same sum in
// the same order as a one-core run's. A dispatch hands out integrateGroup
// consecutive elements at a time.
const (
	assembleChunk  = 256
	integrateGroup = 16
)

// elemKernel is element integration (kes non-nil) and the material commit
// (kes nil) at u as a pool.ItemKernel over the elements of one chunk:
// item s is element e0+s. Integrating, it owns slot s of the chunk's
// buffers, kes[s·ndof²:(s+1)·ndof²] and fes[s·ndof:(s+1)·ndof];
// committing, the element's States. Each lane integrates with scratch of
// its own and counts its flops apart.
type elemKernel struct {
	p       *Problem
	u       []float64
	e0      int
	ndof    int
	kes     []float64
	fes     []float64
	scratch [pool.Lanes]*elemScratch
	flops   [pool.Lanes]int64
	errs    [assembleChunk]error
}

// newElemKernel allocates, for integration, the chunk's slot buffers.
func (p *Problem) newElemKernel(integrate bool) *elemKernel {
	ndof := 3 * p.M.Type.NodesPerElem()
	k := &elemKernel{p: p, ndof: ndof}
	if integrate {
		k.kes = make([]float64, assembleChunk*ndof*ndof)
		k.fes = make([]float64, assembleChunk*ndof)
	}
	return k
}

// Items implements pool.ItemKernel (see elemKernel).
func (k *elemKernel) Items(w, lo, hi int) {
	scr := k.scratch[w]
	if scr == nil {
		scr = newElemScratch(k.p.M.Type)
		k.scratch[w] = scr
	}
	ndof := k.ndof
	for s := lo; s < hi; s++ {
		if k.kes == nil {
			k.errs[s] = k.p.commitElement(k.e0+s, k.u, scr.ed)
			continue
		}
		fl, err := k.p.integrateElement(k.e0+s, k.u, scr, k.kes[s*ndof*ndof:(s+1)*ndof*ndof], k.fes[s*ndof:(s+1)*ndof])
		k.errs[s] = err
		k.flops[w] += fl
	}
}

// run dispatches elements [e0, e1), at most assembleChunk of them, and
// returns the error of the first one that failed.
func (k *elemKernel) run(u []float64, e0, e1 int) error {
	k.u, k.e0 = u, e0
	// No cost model: the helpers take part whenever there are two groups
	// to hand out. A group is some 600 k multiply-adds integrating (a hex8
	// is about 38 k) and of the order of pool.Grain committing.
	pool.RunItems(k, e1-e0, integrateGroup, (e1-e0)*pool.Grain)
	for _, err := range k.errs[:e1-e0] {
		if err != nil {
			return err
		}
	}
	return nil
}

// integrateChunks integrates every element at u and hands each chunk's
// tangents (ndof² per element, row-major) and internal forces to drain,
// chunks and the elements inside them in ascending order.
func (p *Problem) integrateChunks(u []float64, drain func(e0, e1 int, kes, fes []float64)) error {
	k := p.newElemKernel(true)
	for e0, n := 0, p.M.NumElems(); e0 < n; e0 += assembleChunk {
		e1 := min(e0+assembleChunk, n)
		if err := k.run(u, e0, e1); err != nil {
			return err
		}
		drain(e0, e1, k.kes, k.fes)
	}
	for _, fl := range k.flops {
		p.AssembleFlops += fl
	}
	return nil
}

// IntegrationKernel returns element integration at u over the first chunk
// of the mesh as the kernel AssembleBlockTangent dispatches, with the
// tangent and force buffers it writes and its element count, for
// TestKernelContract.
func (p *Problem) IntegrationKernel(u []float64) (k pool.ItemKernel, kes, fes []float64, n int) {
	ek := p.newElemKernel(true)
	ek.u = u
	n = min(p.M.NumElems(), assembleChunk)
	return ek, ek.kes[:n*ek.ndof*ek.ndof], ek.fes[:n*ek.ndof], n
}

// AssembleTangent computes the global consistent tangent K(u) and internal
// force vector fint(u) from the committed material states. Both use the
// full 3·NumVerts dof numbering; apply Constraints to reduce. The scalar
// matrix is the expansion of the blocked assembly — same pattern (elements
// touch all 9 entries of every node pair) and bitwise-identical values.
func (p *Problem) AssembleTangent(u []float64) (*sparse.CSR, []float64, error) {
	k, fint, err := p.AssembleBlockTangent(u)
	if err != nil {
		return nil, nil, err
	}
	return k.ToCSR(), fint, nil
}

// AssembleBlockTangent is the blocked form of AssembleTangent: the tangent
// comes back in BSR — the paper's BAIJ storage — ready for the blocked
// solver stack without a conversion pass. The block pattern is known before
// any number is: the arrays are allocated once from the mesh's NodePattern
// and each element's 3x3 node-pair blocks are added straight into Val.
func (p *Problem) AssembleBlockTangent(u []float64) (*sparse.BSR, []float64, error) {
	sp := obs.Start(evAssemble)
	defer sp.End()
	n := p.M.NumDOF()
	if len(u) != n {
		return nil, nil, fmt.Errorf("fem: u has %d entries, want %d", len(u), n)
	}
	spp := obs.Start(evAssemblePattern)
	rowPtr, colIdx := p.M.NodePattern()
	spp.End()
	val := make([]float64, 9*len(colIdx))
	fint := make([]float64, n)
	ndof := 3 * p.M.Type.NodesPerElem()

	// Deterministic accumulation in element order, node pair by node
	// pair: every stored entry is the same sum in the same order whoever
	// integrated the elements.
	err := p.integrateChunks(u, func(e0, e1 int, kes, fes []float64) {
		for e := e0; e < e1; e++ {
			conn := p.M.Elems[e]
			ke := kes[(e-e0)*ndof*ndof : (e-e0+1)*ndof*ndof]
			fe := fes[(e-e0)*ndof : (e-e0+1)*ndof]
			for a, va := range conn {
				for i := 0; i < 3; i++ {
					fint[3*va+i] += fe[3*a+i]
				}
				lo := rowPtr[va]
				row := colIdx[lo:rowPtr[va+1]]
				for bn, vb := range conn {
					k, _ := slices.BinarySearch(row, vb)
					blk := val[9*(lo+k) : 9*(lo+k)+9]
					for i := 0; i < 3; i++ {
						src := ke[(3*a+i)*ndof+3*bn : (3*a+i)*ndof+3*bn+3]
						blk[3*i+0] += src[0]
						blk[3*i+1] += src[1]
						blk[3*i+2] += src[2]
					}
				}
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	nv := p.M.NumVerts()
	return &sparse.BSR{NBRows: nv, NBCols: nv, B: 3, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, fint, nil
}

// Commit recomputes the material response at u and stores the new history
// (called once per converged load step). Elements are independent, so the
// update runs on the shared worker set like integration.
func (p *Problem) Commit(u []float64) error {
	k := p.newElemKernel(false)
	for e0, n := 0, p.M.NumElems(); e0 < n; e0 += assembleChunk {
		if err := k.run(u, e0, min(e0+assembleChunk, n)); err != nil {
			return err
		}
	}
	return nil
}

// commitElement stores the material response of element e at u as its
// committed state.
func (p *Problem) commitElement(e int, u []float64, ed *elementData) error {
	if err := p.geometry(e, ed); err != nil {
		return err
	}
	model := p.Models[p.M.Mat[e]]
	gps, _ := quadrature(p.M.Type)
	for g := range gps {
		eps := p.strainAt(e, ed, g, u)
		_, _, next := model.Update(p.States[e][g], eps)
		p.States[e][g] = next
	}
	return nil
}

// PlasticFraction returns the fraction of integration points currently in
// the plastic state among elements with the given material id (Figure 13
// left reports this for the "hard" shells).
func (p *Problem) PlasticFraction(matID int) float64 {
	total, plastic := 0, 0
	for e := range p.M.Elems {
		if p.M.Mat[e] != matID {
			continue
		}
		for _, s := range p.States[e] {
			total++
			if s.Plastic {
				plastic++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(plastic) / float64(total)
}
