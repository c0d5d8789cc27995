// Benchmarks of the paper's mechanisms (materials, hierarchy, mesh
// generation, MIS variants, the section 8 hierarchy comparison), plus
// kernel benchmarks for the substrates. Each reports its headline
// quantities as custom metrics (levels, face coverage, iterations, ...)
// alongside Go's timing output. The tables and figures themselves are
// regenerated by prombench (internal/experiments); see DESIGN.md for the
// experiment index and EXPERIMENTS.md for the recorded comparison.
package prometheus

import (
	"math/rand"
	"testing"

	"prometheus/internal/core"
	"prometheus/internal/delaunay"
	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/multigrid"
	"prometheus/internal/obs"
	"prometheus/internal/problems"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
	"prometheus/internal/topo"
)

// BenchmarkTable1Materials exercises the Table 1 constitutive updates: the
// J2 radial return with kinematic hardening and the Neo-Hookean response.
func BenchmarkTable1Materials(b *testing.B) {
	hard := material.J2Plasticity{E: 1, Nu: 0.3, SigmaY: 1e-3, H: 0.002}
	soft := material.NeoHookean{E: 1e-4, Nu: 0.49}
	eps := material.Voigt{0.001, -0.0003, -0.0003, 0.004, 0.001, -0.002}
	var st material.State
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, st = hard.Update(st, eps)
		_, _, _ = soft.Update(material.State{}, eps)
	}
}

// BenchmarkFig7Hierarchy builds the coarse grid hierarchy of the model
// problem (the Figure 7 artifact) and reports the level count and total
// vertex reduction.
func BenchmarkFig7Hierarchy(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	var h *core.Hierarchy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		h, err = core.Coarsen(s.Mesh, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	counts, _ := h.VertexReduction()
	b.ReportMetric(float64(h.NumLevels()), "levels")
	b.ReportMetric(float64(counts[0])/float64(counts[len(counts)-1]), "total-reduction")
}

// BenchmarkFig9MeshGen generates the concentric-spheres model problem
// (Figure 9) at the paper's 17-layer geometry.
func BenchmarkFig9MeshGen(b *testing.B) {
	var s *problems.Spheres
	for i := 0; i < b.N; i++ {
		s = problems.NewSpheresConfig(problems.SpheresConfig{
			Layers: 17, ElemsPerLayer: 1, CoreElems: 3, OuterElems: 3,
		})
	}
	b.ReportMetric(float64(s.Mesh.NumDOF()), "dof")
	b.ReportMetric(100*s.HardFraction(), "hard-%")
}

// BenchmarkFig4ThinBody measures the Figures 4-6 mechanism: MIS with the
// modified graph on a thin slab, reporting face coverage.
func BenchmarkFig4ThinBody(b *testing.B) {
	m := problems.ThinSlab(12, 12, 0.35)
	facets := m.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	faceID, _ := topo.IdentifyFaces(facets, adj, topo.DefaultTOL)
	cls := topo.Classify(m.NumVerts(), facets, faceID)
	g := m.NodeGraph()
	var top, bottom int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg := cls.ModifiedGraph(g)
		order := graph.RankedOrder(cls.Rank, graph.NaturalOrder(g.N))
		mis := graph.MIS(mg, order, cls.Rank, cls.Immortal())
		top, bottom = 0, 0
		for _, v := range mis {
			if m.Coords[v].Z > 0.34 {
				top++
			}
			if m.Coords[v].Z < 0.01 {
				bottom++
			}
		}
	}
	b.ReportMetric(float64(top), "top-verts")
	b.ReportMetric(float64(bottom), "bottom-verts")
}

// BenchmarkMISOrdering is the section 4.7 ablation: natural vs random
// ordering MIS sizes on a uniform hexahedral node graph.
func BenchmarkMISOrdering(b *testing.B) {
	m := mesh.StructuredHex(10, 10, 10, 1, 1, 1, nil)
	g := m.NodeGraph()
	var nat, rnd int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nat = len(graph.MIS(g, graph.NaturalOrder(g.N), nil, nil))
		rnd = len(graph.MIS(g, graph.RandomOrder(g.N, 7), nil, nil))
	}
	b.ReportMetric(float64(nat)/float64(g.N), "natural-ratio")
	b.ReportMetric(float64(rnd)/float64(g.N), "random-ratio")
}

// --- Substrate kernel benches ---

// BenchmarkSpMV measures the sparse matrix-vector kernel on the assembled
// fine operator (the paper reports 36 Mflop/s per PowerPC processor here).
func BenchmarkSpMV(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	p := fem.NewProblem(s.Mesh, s.Models, true)
	kb, _, err := p.AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		b.Fatal(err)
	}
	k := kb.ToCSR()
	x := make([]float64, k.NCols)
	y := make([]float64, k.NRows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MulVec(x, y)
	}
	b.SetBytes(int64(12 * k.NNZ())) // 8B value + 4B index per entry
	b.ReportMetric(float64(k.MulVecFlops())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
}

// fineSmoother returns the smoother of the fine level of the hierarchy a
// Solver builds for the small spheres system (the 3k-dof tangent of
// BenchmarkPreconditioner), and a right-hand side for it.
func fineSmoother(tb testing.TB) (*smooth.CGSmoother, []float64) {
	tb.Helper()
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	solver, err := NewSolver(s.Mesh, s.Cons, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	k, _, err := NewProblem(s.Mesh, s.Models, true).AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		tb.Fatal(err)
	}
	kred, _ := solver.ReduceSystem(k, make([]float64, s.Mesh.NumDOF()))
	mg, err := solver.Preconditioner(kred)
	if err != nil {
		tb.Fatal(err)
	}
	rhs := make([]float64, kred.NRows)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	return mg.Levels[0].Smoother, rhs
}

// BenchmarkSmoother measures one smoothing step of the fine level's
// smoother — a CG iteration preconditioned by block Jacobi — on the small
// spheres system. Allocation counts are reported so the zero-alloc
// steady-state guarantee is visible in -benchmem output.
func BenchmarkSmoother(b *testing.B) {
	sm, rhs := fineSmoother(b)
	b.Run("CGSmoother", func(b *testing.B) {
		x := make([]float64, len(rhs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sm.Smooth(x, rhs, 1)
		}
	})
	// The same step with observability recording on, so -benchmem output
	// shows the span overhead (and its zero allocations) next to the
	// uninstrumented number.
	b.Run("CGSmoother/obs", func(b *testing.B) {
		obs.EnableWith(obs.Config{RingCap: 1 << 12})
		defer obs.Disable()
		x := make([]float64, len(rhs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sm.Smooth(x, rhs, 1)
		}
	})
}

// BenchmarkFMGApply measures one preconditioner application — the default
// FMG cycle with the CG-wrapped block-Jacobi smoother — on the two library
// systems of BENCHMARK.json at the benchmark's sizes: spheres (20.6k dofs,
// CSR fine level over blocked Galerkin levels) and the cube (46.9k dofs,
// BSR throughout). It must not allocate.
func BenchmarkFMGApply(b *testing.B) {
	for _, tc := range []struct {
		name string
		sys  func(testing.TB, bool, multigrid.Options) reducedSystem
	}{
		{"spheres20k", spheresSystem},
		{"cube47k", cubeSystem},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mg := tc.sys(b, true, multigrid.Options{}).hierarchy(b)
			r := make([]float64, mg.Levels[0].A.Rows())
			z := make([]float64, len(r))
			for i := range r {
				r[i] = float64(i%7) - 3
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mg.Apply(r, z)
			}
		})
	}
}

// BenchmarkGalerkin measures the coarse operator triple product R·A·Rᵀ.
func BenchmarkGalerkin(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	p := fem.NewProblem(s.Mesh, s.Models, true)
	kb, _, err := p.AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		b.Fatal(err)
	}
	k := kb.ToCSR()
	h, err := core.Coarsen(s.Mesh, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := h.Grids[1].R
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sparse.Galerkin(r, k)
	}
}

// BenchmarkPreconditioner measures one hierarchy build on the
// spheres_newton tangent: "plan" from a Solver without a plan (the first
// build of a mesh), "fill" into the plan of an earlier operator of the
// same pattern (every Newton rebuild after the first).
func BenchmarkPreconditioner(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	solver, err := NewSolver(s.Mesh, s.Cons, Options{})
	if err != nil {
		b.Fatal(err)
	}
	k, _, err := NewProblem(s.Mesh, s.Models, true).AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		b.Fatal(err)
	}
	kred, _ := solver.ReduceSystem(k, make([]float64, s.Mesh.NumDOF()))
	if _, err := solver.Preconditioner(kred); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		solver func() *Solver
	}{
		{"plan", func() *Solver { return withoutPlan(solver) }},
		{"fill", func() *Solver { return solver }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.solver().Preconditioner(kred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDelaunay measures the coarse-grid remesher on a random cloud.
func BenchmarkDelaunay(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Vec3, 500)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delaunay.New(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaceID measures the Figure 3 face identification on the model
// problem boundary (including material interfaces).
func BenchmarkFaceID(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	facets := s.Mesh.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n = topo.IdentifyFaces(facets, adj, topo.DefaultTOL)
	}
	b.ReportMetric(float64(n), "faces")
}

// BenchmarkAssembly measures element integration and assembly (the FEAP
// "fine grid creation" phase).
func BenchmarkAssembly(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	p := fem.NewProblem(s.Mesh, s.Models, true)
	u := make([]float64, s.Mesh.NumDOF())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.AssembleTangent(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd is the full public-API pipeline on the quickstart cube.
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewStructuredHexMesh(8, 8, 8, 1, 1, 1, nil)
		cons := NewConstraints()
		f := make([]float64, m.NumDOF())
		for v, pt := range m.Coords {
			if pt.Z == 0 {
				cons.FixVert(v, 0, 0, 0)
			}
			if pt.Z == 1 {
				f[3*v+2] = -0.001
			}
		}
		solver, err := NewSolver(m, cons, Options{RTol: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		p := NewProblem(m, []Model{LinearElastic{E: 1, Nu: 0.3}}, false)
		k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := solver.SolveLinear(k, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMGCompare runs the section 8 comparison: MIS geometric
// coarsening vs smoothed aggregation on the same operator (E20), each a
// Solver's mesh setup and linear solve of the first Newton increment.
func BenchmarkAMGCompare(b *testing.B) {
	s := problems.NewSpheresConfig(problems.SpheresConfig{
		Layers: 5, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2,
	})
	p := NewProblem(s.Mesh, s.Models, true)
	u := make([]float64, s.Mesh.NumDOF())
	s.Cons.Scaled(0.1).Apply(u)
	k, r, err := p.AssembleTangent(u)
	if err != nil {
		b.Fatal(err)
	}
	for i := range r {
		r[i] = -r[i] // the Newton right-hand side -fint
	}
	zero := s.Cons.Homogeneous()
	for _, bc := range []struct {
		name      string
		hierarchy HierarchyKind
	}{{"geometric", GeometricMIS}, {"smoothed-aggregation", SmoothedAggregation}} {
		b.Run(bc.name, func(b *testing.B) {
			var its int
			for i := 0; i < b.N; i++ {
				solver, err := NewSolver(s.Mesh, zero, Options{Hierarchy: bc.hierarchy, MaxIters: 2000})
				if err != nil {
					b.Fatal(err)
				}
				_, res, err := solver.SolveLinear(k, r)
				if err != nil {
					b.Fatal(err)
				}
				its = res.Iterations
			}
			b.ReportMetric(float64(its), "PCG-iters")
		})
	}
}

// BenchmarkAssembleReduce measures the per-matrix phases ahead of matrix
// setup on the two library systems of BENCHMARK.json at the benchmark's
// sizes: tangent assembly (pattern, element integration, scatter) and
// Dirichlet reduction, read from the blocks.
func BenchmarkAssembleReduce(b *testing.B) {
	sp := problems.NewSpheresConfig(problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4})
	u0 := make([]float64, sp.Mesh.NumDOF())
	sp.Cons.Scaled(0.1).Apply(u0)
	cube := problems.NewCube(24, LinearElastic{E: 1, Nu: 0.3}, -0.001)
	for _, tc := range []struct {
		name string
		p    *Problem
		cons *Constraints
		u    []float64
	}{
		{"cube_46.9k", NewProblem(cube.Mesh, cube.Models, false), cube.Cons, make([]float64, cube.Mesh.NumDOF())},
		{"spheres_20.6k", NewProblem(sp.Mesh, sp.Models, true), sp.Cons, u0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dm := tc.cons.NewDofMap(tc.p.M.NumDOF())
			fred := make([]float64, dm.NumFree())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, f, err := tc.p.AssembleTangent(tc.u)
				if err != nil {
					b.Fatal(err)
				}
				kred, lm := tc.cons.Reduce(k, dm)
				lm.Apply(fred, f, 1)
				if kred.NRows != dm.NumFree() {
					b.Fatal("reduced system has the wrong size")
				}
			}
		})
	}
}
