// Package core is the reproduction of Prometheus proper — the paper's
// contribution (sections 3 and 4): automatic construction of a hierarchy of
// coarse grids and restriction operators from an unstructured fine mesh.
//
// Per level the pipeline is:
//
//  1. classify vertices topologically from identified boundary faces
//     (sections 4.3-4.5), or inherit/reclassify per the section 4.6 policy;
//  2. build the modified MIS graph: delete edges between exterior vertices
//     that share no face, make corners immortal (section 4.6);
//  3. run the maximal independent set algorithm with rank ordering and the
//     natural order within a rank (sections 4.1, 4.7; the parallel
//     algorithm of section 4.2 is par.ParallelMIS);
//  4. remesh the selected vertices with Delaunay tetrahedra inside a
//     bounding box, dropping the box-attached tetrahedra (section 4.8);
//  5. build the restriction operator from linear tetrahedral shape
//     functions evaluated at the fine vertices, with the lost-vertex
//     fallback (section 4.8), one fine vertex per item on the shared
//     worker set;
//  6. recurse on the coarse tetrahedral mesh.
//
// Coarse grid operators are formed algebraically by the multigrid package
// (A_coarse = R·A_fine·Rᵀ, section 3).
package core

import (
	"fmt"
	"slices"

	"prometheus/internal/check"
	"prometheus/internal/delaunay"
	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/mesh"
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
	"prometheus/internal/topo"
)

// Options controls the coarsening.
type Options struct {
	// TOL is the face identification tolerance (cosine); default 0.866.
	TOL float64
	// ReclassifyFrom is the first grid index whose classification is
	// recomputed from its own mesh rather than inherited; the paper
	// reclassifies "the third and subsequent grids", i.e. index 2.
	ReclassifyFrom int
	// MinCoarse stops coarsening once a grid has at most this many
	// vertices (they are then solved directly). Default 64.
	MinCoarse int
	// MaxLevels bounds the total number of grids. Default 16.
	MaxLevels int
}

// eps is the interpolation tolerance: fine vertices accept containing
// tetrahedra with barycentric weights above -eps (section 4.8's
// "interpolates that are all above -epsilon").
const eps = 1e-8

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.TOL == 0 {
		o.TOL = topo.DefaultTOL
	}
	if o.ReclassifyFrom == 0 {
		o.ReclassifyFrom = 2
	}
	if o.MinCoarse == 0 {
		o.MinCoarse = 64
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 16
	}
	return o
}

// Grid is one level of the hierarchy. Grid 0 is the input mesh; every
// coarser grid carries the restriction from its parent.
type Grid struct {
	Mesh  *mesh.Mesh // the grid's mesh (input mesh or coarse tet mesh)
	Class *topo.Classification
	// Verts maps this grid's vertices to their parent-grid vertex ids
	// (nil on grid 0).
	Verts []int
	// R restricts parent-grid dof vectors to this grid:
	// (3·nVerts)×(3·nParentVerts); nil on grid 0. Rows are the linear
	// tetrahedral shape functions of section 4.8, replicated per
	// displacement component.
	R *sparse.CSR
	// Lost counts the fine vertices interpolated via the nearest-element
	// fallback on this grid's construction.
	Lost int
}

// Hierarchy is the grid stack, finest first.
type Hierarchy struct {
	Grids []*Grid
	Opts  Options
}

// NumLevels returns the number of grids.
func (h *Hierarchy) NumLevels() int { return len(h.Grids) }

// Coarsen builds the full hierarchy from the input mesh.
func Coarsen(m *mesh.Mesh, opts Options) (*Hierarchy, error) {
	sp := obs.Start(evCoarsen)
	h, err := coarsen(m, opts)
	sp.End()
	return h, err
}

func coarsen(m *mesh.Mesh, opts Options) (*Hierarchy, error) {
	opts = opts.withDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{Opts: opts}
	spc := obs.Start(evClassify)
	cls := topo.Reclassify(m, opts.TOL)
	spc.End()
	h.Grids = append(h.Grids, &Grid{Mesh: m, Class: cls})

	for len(h.Grids) < opts.MaxLevels {
		cur := h.Grids[len(h.Grids)-1]
		if cur.Mesh.NumVerts() <= opts.MinCoarse {
			break
		}
		spl := obs.Start(evLevel)
		next, err := coarsenOnce(cur, len(h.Grids), opts)
		spl.End()
		if err != nil {
			return nil, fmt.Errorf("core: level %d: %w", len(h.Grids), err)
		}
		if next == nil {
			break // coarsening stalled; solve current level directly
		}
		h.Grids = append(h.Grids, next)
	}
	return h, nil
}

// coarsenOnce builds grid "level" from its parent. Returns nil (no error)
// when coarsening can no longer make useful progress.
func coarsenOnce(parent *Grid, level int, opts Options) (*Grid, error) {
	m := parent.Mesh
	cls := parent.Class
	spm := obs.Start(evMIS)
	g := m.NodeGraph()
	mg := cls.ModifiedGraph(g)

	order := graph.RankedOrder(cls.Rank, nil)
	mis := graph.MIS(mg, order, cls.Rank, cls.Immortal())
	spm.End()
	if len(mis) < 5 || len(mis) >= m.NumVerts() {
		return nil, nil // too small to remesh, or no reduction
	}
	if check.Enabled {
		// The selected set must be a valid independent set of the modified
		// MIS graph (independence on mg, not on the raw node graph g, whose
		// exterior-exterior edges section 4.6 deletes).
		check.IndependentSet(mis, mg.N, mg.Neighbors, cls.Immortal(), "core.coarsenOnce")
	}

	coords := make([]geom.Vec3, len(mis))
	for i, v := range mis {
		coords[i] = m.Coords[v]
	}

	spr := obs.Start(evRemesh)
	tri, err := delaunay.New(coords)
	spr.End()
	if err != nil {
		// Degenerate coarse point set (deep, tiny grids): stop coarsening
		// here and let the previous level be solved directly.
		return nil, nil
	}
	tets := tri.Tets()
	if len(tets) == 0 {
		return nil, nil
	}

	nc := len(mis)
	spb := obs.Start(evRestrict)
	defer spb.End()
	rk := newRestrictKernel(m.Coords, g, mis, tri, tets)
	r, lost, ok := rk.build()
	if !ok {
		// Every candidate tetrahedron of some fine vertex is degenerate: the
		// coarse vertex set has collapsed (e.g. a thin body whose MIS lost
		// one face, Figure 4). Stop coarsening here.
		return nil, nil
	}

	// Coarse tetrahedral mesh: every tetrahedron off the bounding box. Its
	// material is the majority of its corners' parent vertex materials
	// (only used by the reclassification face heuristics on coarser
	// grids), ties to the lower id.
	vertMat := vertexMaterials(m)
	conn := make([]int, 4*len(tets))
	elems := make([][]int, len(tets))
	mats := make([]int, len(tets))
	for e, tet := range tets {
		elems[e] = conn[4*e : 4*e+4 : 4*e+4]
		var corner [4]int
		for i, cv := range tet {
			elems[e][i] = cv
			corner[i] = vertMat[mis[cv]]
		}
		mats[e] = majority(corner[:])
	}
	cm := &mesh.Mesh{Type: mesh.Tet4, Coords: coords, Elems: elems, Mat: mats}

	// Classification for the new grid: inherit below ReclassifyFrom,
	// recompute from the coarse mesh at and beyond it (section 4.6).
	var ncls *topo.Classification
	if level < opts.ReclassifyFrom {
		ncls = &topo.Classification{
			Rank:  make([]int, nc),
			Faces: make([][]int, nc),
		}
		for i, v := range mis {
			ncls.Rank[i] = cls.Rank[v]
			ncls.Faces[i] = append([]int(nil), cls.Faces[v]...)
		}
	} else {
		ncls = topo.Reclassify(cm, opts.TOL)
	}

	return &Grid{
		Mesh:  cm,
		Class: ncls,
		Verts: mis,
		R:     r,
		Lost:  lost,
	}, nil
}

// VertexReduction returns the per-level vertex counts and reduction ratios
// (the paper bounds the MIS ratio by 1/2³ and 1/3³ on uniform hexahedral
// meshes, section 4.7).
func (h *Hierarchy) VertexReduction() (counts []int, ratios []float64) {
	for i, g := range h.Grids {
		counts = append(counts, g.Mesh.NumVerts())
		if i > 0 {
			ratios = append(ratios, float64(counts[i])/float64(counts[i-1]))
		}
	}
	return
}

// vertexMaterials assigns each vertex the majority material of its incident
// elements (ties to the lower id; 0 for a vertex no element references).
// A count pass and a fill pass list each vertex's incident materials in one
// array.
func vertexMaterials(m *mesh.Mesh) []int {
	nv := m.NumVerts()
	ptr := make([]int, nv+1)
	for _, conn := range m.Elems {
		for _, v := range conn {
			ptr[v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		ptr[v+1] += ptr[v]
	}
	inc := make([]int, ptr[nv])
	next := slices.Clone(ptr[:nv])
	for e, conn := range m.Elems {
		for _, v := range conn {
			inc[next[v]] = m.Mat[e]
			next[v]++
		}
	}
	out := make([]int, nv)
	for v := range out {
		out[v] = majority(inc[ptr[v]:ptr[v+1]])
	}
	return out
}

// majority returns the most frequent id in ids, the lowest of those tied,
// and 0 for none. It sorts ids.
func majority(ids []int) int {
	slices.Sort(ids)
	best, bestN := 0, 0
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		if j-i > bestN {
			best, bestN = ids[i], j-i
		}
		i = j
	}
	return best
}
