package fem

import (
	"fmt"
	"slices"

	"prometheus/internal/check"
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

// elemScratch holds the per-worker buffers of element integration: at the
// Gauss point being integrated, each node's w·G and D·G, G being the
// node's 6×3 slice of B.
type elemScratch struct {
	wb []nodeB
	dg []nodeDG
	ed *elementData
}

// nodeB holds the distinct entries of a node's three columns of B, column
// c being displacement component c and rows 3, 4, 5 the xy, yz and zx
// shear strains. Without B-bar the gradient g = dN/dx fills them: column c
// holds g_c in normal row c and the other two components of g in its two
// shear rows (column 0: rows 0, 3, 5 hold g_x, g_y, g_z; column 1: rows 1,
// 3, 4 hold g_y, g_x, g_z; column 2: rows 2, 4, 5 hold g_z, g_y, g_x).
// With B-bar every normal row of column c also holds v_c = (ḡ_c − g_c)/3,
// the mean-dilatation correction, so row c holds n_c = g_c + v_c and the
// other two normal rows v_c.
type nodeB struct{ g, v, n [3]float64 }

// nodeDG is D·G, a node's 6×3 slice of D·B.
type nodeDG [6][3]float64

func newElemScratch(t mesh.ElemType) *elemScratch {
	npe := t.NodesPerElem()
	return &elemScratch{wb: make([]nodeB, npe), dg: make([]nodeDG, npe), ed: newElementData(t)}
}

// integrateElement computes the element tangent (flat, row-major ndof×ndof)
// and internal force of element e at displacement u, returning the flop
// estimate.
//
// The tangent Σ w·Bᵀ·D·B over the Gauss points is formed one 3×3
// node-pair block at a time, w·G_aᵀ·(D·G_b) for b ≥ a, and its strict
// upper triangle is copied into the lower one at the end, so it is
// symmetric bit for bit. Each upper entry is the sum the loop over all of
// B and D gives (integrateElementFull in the tests): an entry of D·G_b
// adds d[i][k]·b[k][j] onto +0, k ascending, over the rows k where
// column j of B can be nonzero, and an entry of the block adds its
// (w·b)·(D·G_b) terms to the tangent left to right in the same row order.
// A sum that starts at +0 never holds -0, so terms that are ±0 for a finite
// D change no bit: those of B's structural zeros, left out, and those of
// its entries that happen to be zero, kept.
func (p *Problem) integrateElement(e int, u []float64, scr *elemScratch, ke, fe []float64) (int64, error) {
	ed := scr.ed
	if err := p.geometry(e, ed); err != nil {
		return 0, err
	}
	nNodes := p.M.Type.NodesPerElem()
	ndof := 3 * nNodes
	model := p.Models[p.M.Mat[e]]
	clear(fe)
	clear(ke)
	var flops int64
	gps, _ := quadrature(p.M.Type)
	for g, gp := range gps {
		eps := p.strainAt(e, ed, g, u)
		sig, d, _ := model.Update(p.States[e][g], eps)
		w := gp.W * ed.detJ[g]
		wb, dg := scr.wb[:nNodes], scr.dg[:nNodes]
		for a, gx := range ed.dndx[g][:nNodes] {
			nb := nodeB{g: [3]float64{gx.X, gx.Y, gx.Z}}
			if p.BBar {
				gb := ed.bbar[a]
				nb.v = [3]float64{(gb.X - gx.X) / 3, (gb.Y - gx.Y) / 3, (gb.Z - gx.Z) / 3}
				nb.n = [3]float64{gx.X + nb.v[0], gx.Y + nb.v[1], gx.Z + nb.v[2]}
				dgBBar(&dg[a], &d, &nb)
			} else {
				dgPlain(&dg[a], &d, &nb)
			}
			wa := &wb[a]
			for c := range wa.g {
				wa.g[c], wa.v[c], wa.n[c] = w*nb.g[c], w*nb.v[c], w*nb.n[c]
			}
			addForce((*[3]float64)(fe[3*a:3*a+3]), wa, &sig, p.BBar)
		}
		for a := range wb {
			rows := ke[3*a*ndof : (3*a+3)*ndof]
			if p.BBar {
				addRowBBar(rows, ndof, a, &wb[a], dg)
			} else {
				addRowPlain(rows, ndof, a, &wb[a], dg)
			}
		}
		flops += int64(6*ndof*6*2 + ndof*6*(ndof+1)*2)
	}
	for i := 0; i < ndof; i++ {
		for j := i + 1; j < ndof; j++ {
			ke[j*ndof+i] = ke[i*ndof+j]
		}
	}
	return flops, nil
}

// dgPlain writes D·G into dg for a node's columns G of B without B-bar.
func dgPlain(dg *nodeDG, d *material.Tangent, nb *nodeB) {
	x, y, z := nb.g[0], nb.g[1], nb.g[2]
	for i := range dg {
		di := &d[i]
		dg[i][0] = 0 + di[0]*x + di[3]*y + di[5]*z
		dg[i][1] = 0 + di[1]*y + di[3]*x + di[4]*z
		dg[i][2] = 0 + di[2]*z + di[4]*y + di[5]*x
	}
}

// dgBBar writes D·G into dg for a node's columns G of B with B-bar.
func dgBBar(dg *nodeDG, d *material.Tangent, nb *nodeB) {
	x, y, z := nb.g[0], nb.g[1], nb.g[2]
	vx, vy, vz := nb.v[0], nb.v[1], nb.v[2]
	nx, ny, nz := nb.n[0], nb.n[1], nb.n[2]
	for i := range dg {
		di := &d[i]
		dg[i][0] = 0 + di[0]*nx + di[1]*vx + di[2]*vx + di[3]*y + di[5]*z
		dg[i][1] = 0 + di[0]*vy + di[1]*ny + di[2]*vy + di[3]*x + di[4]*z
		dg[i][2] = 0 + di[0]*vz + di[1]*vz + di[2]*nz + di[4]*y + di[5]*x
	}
}

// addForce adds w·G_aᵀ·σ to node a's three internal force entries, wa
// being w·G_a.
func addForce(f *[3]float64, wa *nodeB, sig *material.Voigt, bbar bool) {
	x, y, z := wa.g[0], wa.g[1], wa.g[2]
	if bbar {
		vx, vy, vz := wa.v[0], wa.v[1], wa.v[2]
		nx, ny, nz := wa.n[0], wa.n[1], wa.n[2]
		f[0] = f[0] + nx*sig[0] + vx*sig[1] + vx*sig[2] + y*sig[3] + z*sig[5]
		f[1] = f[1] + vy*sig[0] + ny*sig[1] + vy*sig[2] + x*sig[3] + z*sig[4]
		f[2] = f[2] + vz*sig[0] + vz*sig[1] + nz*sig[2] + y*sig[4] + x*sig[5]
		return
	}
	f[0] = f[0] + x*sig[0] + y*sig[3] + z*sig[5]
	f[1] = f[1] + y*sig[1] + x*sig[3] + z*sig[4]
	f[2] = f[2] + z*sig[2] + y*sig[4] + x*sig[5]
}

// addRowPlain adds w·G_aᵀ·(D·G_b) without B-bar into the node-pair blocks
// (a, b), b ≥ a, of rows, node a's three rows of the tangent: wa is
// w·G_a and dg[b] is D·G_b.
func addRowPlain(rows []float64, ndof, a int, wa *nodeB, dg []nodeDG) {
	x, y, z := wa.g[0], wa.g[1], wa.g[2]
	k0, k1, k2 := rows[3*a:ndof], rows[ndof+3*a:2*ndof], rows[2*ndof+3*a:3*ndof]
	dg = dg[a:]
	for b := range dg {
		db := &dg[b]
		r0, r1, r2 := (*[3]float64)(k0[3*b:3*b+3]), (*[3]float64)(k1[3*b:3*b+3]), (*[3]float64)(k2[3*b:3*b+3])
		r0[0] = r0[0] + x*db[0][0] + y*db[3][0] + z*db[5][0]
		r0[1] = r0[1] + x*db[0][1] + y*db[3][1] + z*db[5][1]
		r0[2] = r0[2] + x*db[0][2] + y*db[3][2] + z*db[5][2]
		r1[0] = r1[0] + y*db[1][0] + x*db[3][0] + z*db[4][0]
		r1[1] = r1[1] + y*db[1][1] + x*db[3][1] + z*db[4][1]
		r1[2] = r1[2] + y*db[1][2] + x*db[3][2] + z*db[4][2]
		r2[0] = r2[0] + z*db[2][0] + y*db[4][0] + x*db[5][0]
		r2[1] = r2[1] + z*db[2][1] + y*db[4][1] + x*db[5][1]
		r2[2] = r2[2] + z*db[2][2] + y*db[4][2] + x*db[5][2]
	}
}

// addRowBBar is addRowPlain with B-bar.
func addRowBBar(rows []float64, ndof, a int, wa *nodeB, dg []nodeDG) {
	x, y, z := wa.g[0], wa.g[1], wa.g[2]
	vx, vy, vz := wa.v[0], wa.v[1], wa.v[2]
	nx, ny, nz := wa.n[0], wa.n[1], wa.n[2]
	k0, k1, k2 := rows[3*a:ndof], rows[ndof+3*a:2*ndof], rows[2*ndof+3*a:3*ndof]
	dg = dg[a:]
	for b := range dg {
		db := &dg[b]
		r0, r1, r2 := (*[3]float64)(k0[3*b:3*b+3]), (*[3]float64)(k1[3*b:3*b+3]), (*[3]float64)(k2[3*b:3*b+3])
		r0[0] = r0[0] + nx*db[0][0] + vx*db[1][0] + vx*db[2][0] + y*db[3][0] + z*db[5][0]
		r0[1] = r0[1] + nx*db[0][1] + vx*db[1][1] + vx*db[2][1] + y*db[3][1] + z*db[5][1]
		r0[2] = r0[2] + nx*db[0][2] + vx*db[1][2] + vx*db[2][2] + y*db[3][2] + z*db[5][2]
		r1[0] = r1[0] + vy*db[0][0] + ny*db[1][0] + vy*db[2][0] + x*db[3][0] + z*db[4][0]
		r1[1] = r1[1] + vy*db[0][1] + ny*db[1][1] + vy*db[2][1] + x*db[3][1] + z*db[4][1]
		r1[2] = r1[2] + vy*db[0][2] + ny*db[1][2] + vy*db[2][2] + x*db[3][2] + z*db[4][2]
		r2[0] = r2[0] + vz*db[0][0] + vz*db[1][0] + nz*db[2][0] + y*db[4][0] + x*db[5][0]
		r2[1] = r2[1] + vz*db[0][1] + vz*db[1][1] + nz*db[2][1] + y*db[4][1] + x*db[5][1]
		r2[2] = r2[2] + vz*db[0][2] + vz*db[1][2] + nz*db[2][2] + y*db[4][2] + x*db[5][2]
	}
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

// elemChunk is what element integration and the material commit share:
// the displacement, the chunk's first element and each element's error.
// Both are pool.ItemKernels over the elements of one chunk, item s being
// element e0+s, and each lane works with scratch of its own.
type elemChunk struct {
	p    *Problem
	u    []float64
	e0   int
	errs [assembleChunk]error
}

// run dispatches k over elements [e0, e1), at most assembleChunk of them,
// and returns the error of the first one that failed.
func (c *elemChunk) run(k pool.ItemKernel, u []float64, e0, e1 int) error {
	c.u, c.e0 = u, e0
	// No cost model: the helpers take part whenever there are two groups
	// to hand out. A group is some 600 k multiply-adds integrating (a hex8
	// is about 38 k) and of the order of pool.Grain committing.
	pool.RunItems(k, e1-e0, integrateGroup, (e1-e0)*pool.Grain)
	for _, err := range c.errs[:e1-e0] {
		if err != nil {
			return err
		}
	}
	return nil
}

// integrateKernel is element integration at u: item s owns slot s of the
// chunk's buffers, kes[s·ndof²:(s+1)·ndof²] and fes[s·ndof:(s+1)·ndof].
// Each lane counts its flops apart.
type integrateKernel struct {
	elemChunk
	ndof     int
	kes, fes []float64
	scratch  [pool.Lanes]*elemScratch
	flops    [pool.Lanes]int64
}

// newIntegrateKernel allocates the chunk's slot buffers.
func (p *Problem) newIntegrateKernel() *integrateKernel {
	ndof := 3 * p.M.Type.NodesPerElem()
	return &integrateKernel{
		elemChunk: elemChunk{p: p}, ndof: ndof,
		kes: make([]float64, assembleChunk*ndof*ndof), fes: make([]float64, assembleChunk*ndof),
	}
}

// Items implements pool.ItemKernel (see integrateKernel).
func (k *integrateKernel) Items(w, lo, hi int) {
	scr := k.scratch[w]
	if scr == nil {
		scr = newElemScratch(k.p.M.Type)
		k.scratch[w] = scr
	}
	ndof := k.ndof
	for s := lo; s < hi; s++ {
		fl, err := k.p.integrateElement(k.e0+s, k.u, scr, k.kes[s*ndof*ndof:(s+1)*ndof*ndof], k.fes[s*ndof:(s+1)*ndof])
		k.errs[s] = err
		k.flops[w] += fl
	}
}

// commitKernel is the material commit at u: item s owns the States of
// element e0+s.
type commitKernel struct {
	elemChunk
	data [pool.Lanes]*elementData
}

// Items implements pool.ItemKernel (see commitKernel).
func (k *commitKernel) Items(w, lo, hi int) {
	ed := k.data[w]
	if ed == nil {
		ed = newElementData(k.p.M.Type)
		k.data[w] = ed
	}
	for s := lo; s < hi; s++ {
		k.errs[s] = k.p.commitElement(k.e0+s, k.u, ed)
	}
}

// integrateChunks integrates every element at u and hands each chunk's
// tangents (ndof² per element, row-major) and internal forces to drain,
// chunks and the elements inside them in ascending order.
func (p *Problem) integrateChunks(u []float64, drain func(e0, e1 int, kes, fes []float64)) error {
	k := p.newIntegrateKernel()
	for e0, n := 0, p.M.NumElems(); e0 < n; e0 += assembleChunk {
		e1 := min(e0+assembleChunk, n)
		if err := k.run(k, u, e0, e1); err != nil {
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
// of the mesh as the kernel AssembleTangent dispatches, with the
// tangent and force buffers it writes and its element count, for
// TestKernelContract.
func (p *Problem) IntegrationKernel(u []float64) (k pool.ItemKernel, kes, fes []float64, n int) {
	ek := p.newIntegrateKernel()
	ek.u = u
	n = min(p.M.NumElems(), assembleChunk)
	return ek, ek.kes[:n*ek.ndof*ek.ndof], ek.fes[:n*ek.ndof], n
}

// AssembleTangent computes the global consistent tangent K(u) and internal
// force vector fint(u) from the committed material states. Both use the
// full 3·NumVerts dof numbering; apply Constraints to reduce. The tangent
// comes back in BSR — the paper's BAIJ storage — ready for the blocked
// solver stack without a conversion pass. The block pattern is known before
// any number is: the arrays are allocated once from the mesh's NodePattern
// and each element's 3x3 node-pair blocks are added straight into Val, a
// chunk at a time by drainKernel.
func (p *Problem) AssembleTangent(u []float64) (*sparse.BSR, []float64, error) {
	sp := obs.Start(evAssemble)
	defer sp.End()
	n := p.M.NumDOF()
	if len(u) != n {
		return nil, nil, fmt.Errorf("fem: u has %d entries, want %d", len(u), n)
	}
	spp := obs.Start(evAssemblePattern)
	d := p.newDrainKernel()
	spp.End()
	if err := p.integrateChunks(u, d.run); err != nil {
		return nil, nil, err
	}
	nv := p.M.NumVerts()
	if check.Enabled {
		check.SymmetricValues(nv, 3, d.rowPtr, d.colIdx, d.val, "fem: assembled tangent")
	}
	return &sparse.BSR{NBRows: nv, NBCols: nv, B: 3, RowPtr: d.rowPtr, ColIdx: d.colIdx, Val: d.val}, d.fint, nil
}

// drainKernel adds one chunk's element tangents and forces into the
// assembled BSR values and the internal force, item s being the chunk's
// s-th vertex: it owns that vertex's block row and its three fint entries,
// and adds the vertex's incidences in the chunk in element order. So every
// stored entry is the sum, in element order, of its elements' terms,
// whoever drains which vertex, and the work of a chunk is its incidences,
// not the range of vertices they span.
type drainKernel struct {
	elems          [][]int
	ndof           int
	rowPtr, colIdx []int
	val, fint      []float64
	inc            mesh.Incidence
	// The vertices chunk c references are verts[chunkPtr[c]:chunkPtr[c+1]],
	// ascending; first[s] is the position in inc of verts[s]'s first
	// element in the chunk.
	chunkPtr, verts, first []int32

	// The chunk being drained: elements [e0, e1), their tangents and
	// forces in kes and fes slot by slot, and its vertices.
	e0, e1   int
	kes, fes []float64
	cv, cf   []int32
	// pos is a lane's map from a column vertex to its place in the block
	// row being drained.
	pos [pool.Lanes][]int32
}

// newDrainKernel allocates the assembled arrays from the mesh's pattern
// and lists the vertices of every chunk: one count pass and one fill pass
// over the incidence, which holds each vertex's elements in ascending
// order, so a vertex's chunks come in order too.
func (p *Problem) newDrainKernel() *drainKernel {
	rowPtr, colIdx, inc := p.M.NodePattern()
	nv := p.M.NumVerts()
	nc := (p.M.NumElems() + assembleChunk - 1) / assembleChunk
	d := &drainKernel{
		elems: p.M.Elems, ndof: 3 * p.M.Type.NodesPerElem(),
		rowPtr: rowPtr, colIdx: colIdx, inc: inc,
		val:      make([]float64, 9*len(colIdx)),
		fint:     make([]float64, 3*nv),
		chunkPtr: make([]int32, nc+1),
	}
	chunks := func(v int, visit func(c int, t int32)) {
		last := -1
		for t := inc.Ptr[v]; t < inc.Ptr[v+1]; t++ {
			if c := int(inc.Elem[t]) / assembleChunk; c != last {
				visit(c, t)
				last = c
			}
		}
	}
	for v := 0; v < nv; v++ {
		chunks(v, func(c int, _ int32) { d.chunkPtr[c+1]++ })
	}
	for c := 0; c < nc; c++ {
		d.chunkPtr[c+1] += d.chunkPtr[c]
	}
	d.verts = make([]int32, d.chunkPtr[nc])
	d.first = make([]int32, d.chunkPtr[nc])
	next := slices.Clone(d.chunkPtr[:nc])
	for v := 0; v < nv; v++ {
		chunks(v, func(c int, t int32) {
			d.verts[next[c]], d.first[next[c]] = int32(v), t
			next[c]++
		})
	}
	return d
}

// chunk points the kernel at elements [e0, e1), one chunk, integrated
// into kes and fes, and returns its item count.
func (d *drainKernel) chunk(e0, e1 int, kes, fes []float64) int {
	c := e0 / assembleChunk
	d.e0, d.e1, d.kes, d.fes = e0, e1, kes, fes
	d.cv, d.cf = d.verts[d.chunkPtr[c]:d.chunkPtr[c+1]], d.first[d.chunkPtr[c]:d.chunkPtr[c+1]]
	return len(d.cv)
}

// run drains elements [e0, e1), one chunk, on the shared worker set.
func (d *drainKernel) run(e0, e1 int, kes, fes []float64) {
	npe := d.ndof / 3
	pool.RunItems(d, d.chunk(e0, e1, kes, fes), 1, 9*npe*npe*(e1-e0))
}

// Items implements pool.ItemKernel (see drainKernel).
func (d *drainKernel) Items(w, lo, hi int) {
	pos := d.pos[w]
	if pos == nil {
		pos = make([]int32, len(d.rowPtr)-1)
		d.pos[w] = pos
	}
	ndof := d.ndof
	for s := lo; s < hi; s++ {
		v := int(d.cv[s])
		p0 := d.rowPtr[v]
		for k, col := range d.colIdx[p0:d.rowPtr[v+1]] {
			pos[col] = int32(k)
		}
		f := d.fint[3*v : 3*v+3]
		end := d.inc.Ptr[v+1]
		// A vertex an element lists twice (a collapsed element) has two
		// incidences of it in a row, its local nodes in order.
		prev, a := -1, -1
		for t := d.cf[s]; t < end && int(d.inc.Elem[t]) < d.e1; t++ {
			e := int(d.inc.Elem[t])
			conn := d.elems[e]
			if e != prev {
				a = -1
			}
			a += 1 + slices.Index(conn[a+1:], v)
			prev = e
			ke := d.kes[(e-d.e0)*ndof*ndof : (e-d.e0+1)*ndof*ndof]
			fe := d.fes[(e-d.e0)*ndof+3*a : (e-d.e0)*ndof+3*a+3]
			f[0] += fe[0]
			f[1] += fe[1]
			f[2] += fe[2]
			for bn, vb := range conn {
				k := p0 + int(pos[vb])
				blk := d.val[9*k : 9*k+9]
				for i := 0; i < 3; i++ {
					src := ke[(3*a+i)*ndof+3*bn : (3*a+i)*ndof+3*bn+3]
					blk[3*i+0] += src[0]
					blk[3*i+1] += src[1]
					blk[3*i+2] += src[2]
				}
			}
		}
	}
}

// DrainKernels integrates the mesh's first chunk at u and returns its
// item count and fresh, which gives a new drain of that chunk as
// AssembleTangent dispatches it, with the zeroed value and force
// arrays it adds into, for TestKernelContract.
func (p *Problem) DrainKernels(u []float64) (fresh func() (k pool.ItemKernel, val, fint []float64), n int, err error) {
	ik := p.newIntegrateKernel()
	e1 := min(p.M.NumElems(), assembleChunk)
	if err := ik.run(ik, u, 0, e1); err != nil {
		return nil, 0, err
	}
	fresh = func() (pool.ItemKernel, []float64, []float64) {
		d := p.newDrainKernel()
		d.chunk(0, e1, ik.kes, ik.fes)
		return d, d.val, d.fint
	}
	d, _, _ := fresh()
	return fresh, len(d.(*drainKernel).cv), nil
}

// Commit recomputes the material response at u and stores the new history
// (called once per converged load step). Elements are independent, so the
// update runs on the shared worker set like integration.
func (p *Problem) Commit(u []float64) error {
	k := &commitKernel{elemChunk: elemChunk{p: p}}
	for e0, n := 0, p.M.NumElems(); e0 < n; e0 += assembleChunk {
		if err := k.run(k, u, e0, min(e0+assembleChunk, n)); err != nil {
			return err
		}
	}
	return nil
}

// CommitKernel returns the material commit at u over the first chunk of
// the mesh as the kernel Commit dispatches, with its element count, for
// TestKernelContract.
func (p *Problem) CommitKernel(u []float64) (k pool.ItemKernel, n int) {
	ck := &commitKernel{elemChunk: elemChunk{p: p, u: u}}
	return ck, min(p.M.NumElems(), assembleChunk)
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
