package experiments

import (
	"fmt"
	"io"

	"prometheus/internal/aggregation"
	"prometheus/internal/core"
	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/krylov"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/multigrid"
	"prometheus/internal/par"
	"prometheus/internal/perf"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
	"prometheus/internal/topo"
)

// ThinBody reproduces the Figure 4-6 story: on a thin slab, the plain MIS
// can lose an entire face while the modified graph (section 4.6) keeps both
// faces represented — and that matters for multigrid convergence.
func ThinBody(w io.Writer) error {
	m := problems.ThinSlab(12, 12, 0.35)
	facets := m.BoundaryFacets()
	adj := mesh.FacetAdjacency(facets)
	faceID, _ := topo.IdentifyFaces(facets, adj, topo.DefaultTOL)
	cls := topo.Classify(m.NumVerts(), facets, faceID)
	g := m.NodeGraph()

	cover := func(mis []int) (top, bottom int) {
		for _, v := range mis {
			if m.Coords[v].Z > 0.34 {
				top++
			}
			if m.Coords[v].Z < 0.01 {
				bottom++
			}
		}
		return
	}
	plain := graph.MIS(g, graph.NaturalOrder(g.N), nil, nil)
	mg := cls.ModifiedGraph(g)
	order := graph.RankedOrder(cls.Rank, graph.NaturalOrder(g.N))
	modified := graph.MIS(mg, order, cls.Rank, cls.Immortal())

	pt, pb := cover(plain)
	mt, mb := cover(modified)
	rows := [][]string{
		{"plain MIS (Figure 4)", fmt.Sprintf("%d", len(plain)), fmt.Sprintf("%d", pt), fmt.Sprintf("%d", pb)},
		{"modified graph (Figure 5-6)", fmt.Sprintf("%d", len(modified)), fmt.Sprintf("%d", mt), fmt.Sprintf("%d", mb)},
	}
	fmt.Fprintln(w, "Figures 4-6 — thin body MIS: the modified graph must keep both faces covered")
	fmt.Fprint(w, perf.Table([]string{"variant", "|MIS|", "top verts", "bottom verts"}, rows))

	// Convergence consequence: solve a bending problem on the slab with a
	// 2-level hierarchy from each MIS variant.
	iters := func(modifiedGraph bool) (int, int, error) {
		opts := core.Options{MinCoarse: 20, MaxLevels: 3}
		if !modifiedGraph {
			// Plain behaviour: classify everything interior, no immortals.
			opts.TOL = -2 // single face -> no edges deleted, no corners
		}
		h, err := core.Coarsen(m, opts)
		if err != nil {
			return 0, 0, err
		}
		p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
		k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
		if err != nil {
			return 0, 0, err
		}
		cons := fem.NewConstraints()
		for v, pt := range m.Coords {
			if pt.X == 0 {
				cons.FixVert(v, 0, 0, 0)
			}
		}
		f := make([]float64, m.NumDOF())
		for v, pt := range m.Coords {
			if geom.ApproxEq(pt.X, 12, 1e-9) {
				f[3*v+2] = -0.001
			}
		}
		dm := cons.NewDofMap(m.NumDOF())
		kred, fred := cons.Reduce(k, f, dm)
		mgp, err := multigrid.New(kred, restrictions(h, dm), multigrid.Options{})
		if err != nil {
			return 0, 0, err
		}
		x := make([]float64, kred.NRows)
		res := krylov.FPCG(kred, fred, x, mgp, 1e-6, 3000)
		if !res.Converged {
			return res.Iterations, h.NumLevels(), fmt.Errorf("not converged")
		}
		return res.Iterations, h.NumLevels(), nil
	}
	itGood, lvGood, errGood := iters(true)
	if errGood != nil {
		return errGood
	}
	itPlain, lvPlain, errPlain := iters(false)
	fmt.Fprintf(w, "MG-PCG on slab bending: modified-graph hierarchy %d its (%d levels)\n", itGood, lvGood)
	switch {
	case errPlain != nil:
		fmt.Fprintf(w, "face-blind hierarchy: %v\n", errPlain)
	case lvPlain <= 1:
		fmt.Fprintf(w, "face-blind hierarchy: coarsening collapsed (the coarse vertex set lost a face and could not be remeshed) — exactly the Figure 4 pathology; %d level(s) built\n", lvPlain)
	default:
		fmt.Fprintf(w, "face-blind hierarchy: %d its (%d levels)\n", itPlain, lvPlain)
	}
	return nil
}

// Ordering reproduces the section 4.7 ablation: MIS sizes under natural vs
// random orderings on a uniform hexahedral node graph, against the 1/8 and
// 1/27 bounds.
func Ordering(w io.Writer) error {
	m := mesh.StructuredHex(12, 12, 12, 1, 1, 1, nil)
	g := m.NodeGraph()
	nat := graph.MIS(g, graph.NaturalOrder(g.N), nil, nil)
	rows := [][]string{
		{"natural", fmt.Sprintf("%d", len(nat)), fmt.Sprintf("%.4f", float64(len(nat))/float64(g.N))},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		rnd := graph.MIS(g, graph.RandomOrder(g.N, seed), nil, nil)
		rows = append(rows, []string{
			fmt.Sprintf("random(seed=%d)", seed),
			fmt.Sprintf("%d", len(rnd)),
			fmt.Sprintf("%.4f", float64(len(rnd))/float64(g.N)),
		})
	}
	rows = append(rows,
		[]string{"bound 1/2^3", "-", fmt.Sprintf("%.4f", 1.0/8)},
		[]string{"bound 1/3^3", "-", fmt.Sprintf("%.4f", 1.0/27)},
	)
	fmt.Fprintln(w, "Section 4.7 — MIS size vs vertex ordering on a uniform hex node graph (13^3 vertices)")
	fmt.Fprint(w, perf.Table([]string{"ordering", "|MIS|", "|MIS|/|V|"}, rows))
	return nil
}

// ParallelMISStudy reports the section 4.2 algorithm across rank counts:
// set sizes, determinism and the MIS invariants.
func ParallelMISStudy(w io.Writer) error {
	m := mesh.StructuredHex(8, 8, 8, 1, 1, 1, nil)
	g := m.NodeGraph()
	cls := topo.Reclassify(m, topo.DefaultTOL)
	order := graph.RankedOrder(cls.Rank, graph.NaturalOrder(g.N))
	serial := graph.MIS(cls.ModifiedGraph(g), order, cls.Rank, cls.Immortal())
	rows := [][]string{{"serial", fmt.Sprintf("%d", len(serial)), "-", "yes"}}
	for _, p := range []int{2, 4, 8, 16} {
		owner := graph.RCB(m.Coords, p)
		mg := cls.ModifiedGraph(g)
		a := par.ParallelMIS(par.NewComm(p), mg, owner, order, cls.Rank, cls.Immortal())
		b := par.ParallelMIS(par.NewComm(p), mg, owner, order, cls.Rank, cls.Immortal())
		det := "yes"
		if len(a) != len(b) {
			det = "NO"
		} else {
			for i := range a {
				if a[i] != b[i] {
					det = "NO"
					break
				}
			}
		}
		maximal := "yes"
		if !graph.IsMaximal(mg, a) {
			maximal = "NO"
		}
		rows = append(rows, []string{
			fmt.Sprintf("parallel p=%d", p),
			fmt.Sprintf("%d", len(a)), det, maximal,
		})
	}
	fmt.Fprintln(w, "Section 4.2 — parallel MIS across rank counts (9^3 hex node graph, modified graph + ranks)")
	fmt.Fprint(w, perf.Table([]string{"variant", "|MIS|", "deterministic", "maximal"}, rows))
	return nil
}

// AblationTOL sweeps the face identification tolerance and reports face
// counts and solver iterations on the model problem (experiment E16).
func AblationTOL(w io.Writer) error { return ablationTOL(w, seriesCfg(1)) }

func ablationTOL(w io.Writer, cfg problems.SpheresConfig) error {
	rows := [][]string{}
	for _, tol := range []float64{0.5, 0.707, 0.866, 0.966} {
		its, faces, err := solveSpheresWith(cfg, core.Options{TOL: tol}, multigrid.Options{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", tol), fmt.Sprintf("%d", faces), fmt.Sprintf("%d", its),
		})
	}
	fmt.Fprintln(w, "Ablation — face identification tolerance TOL (paper: user parameter; default cos 30°)")
	fmt.Fprint(w, perf.Table([]string{"TOL", "fine-grid faces", "MG-PCG iters"}, rows))
	return nil
}

// AblationReclassify compares inheriting classifications on all grids
// against the paper's reclassify-from-the-third-grid policy (E17).
func AblationReclassify(w io.Writer) error { return ablationReclassify(w, seriesCfg(2)) }

func ablationReclassify(w io.Writer, cfg problems.SpheresConfig) error {
	rows := [][]string{}
	for _, rf := range []struct {
		name string
		from int
	}{{"reclassify from grid 2 (paper)", 2}, {"never reclassify", 99}, {"reclassify every grid", 1}} {
		its, _, err := solveSpheresWith(cfg, core.Options{ReclassifyFrom: rf.from}, multigrid.Options{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{rf.name, fmt.Sprintf("%d", its)})
	}
	fmt.Fprintln(w, "Ablation — coarse grid reclassification policy (section 4.6)")
	fmt.Fprint(w, perf.Table([]string{"policy", "MG-PCG iters"}, rows))
	return nil
}

// AblationBlocks sweeps the block-Jacobi density around the paper's
// 6-per-1000 rule (E18).
func AblationBlocks(w io.Writer) error { return ablationBlocks(w, seriesCfg(1)) }

func ablationBlocks(w io.Writer, cfg problems.SpheresConfig) error {
	rows := [][]string{}
	for _, bpt := range []int{1, 6, 24, 96} {
		bpt := bpt
		its, _, err := solveSpheresWith(cfg, core.Options{}, multigrid.Options{
			BlockCount: func(n int) int {
				nb := n * bpt / 1000
				if nb < 1 {
					nb = 1
				}
				return nb
			},
		})
		if err != nil {
			return err
		}
		rows = append(rows, []string{fmt.Sprintf("%d/1000", bpt), fmt.Sprintf("%d", its)})
	}
	fmt.Fprintln(w, "Ablation — block Jacobi density (paper: 6 blocks per 1000 unknowns)")
	fmt.Fprint(w, perf.Table([]string{"blocks", "MG-PCG iters"}, rows))
	return nil
}

// AblationCycle compares FMG against V-cycle preconditioning (E19).
func AblationCycle(w io.Writer) error { return ablationCycle(w, seriesCfg(2)) }

func ablationCycle(w io.Writer, cfg problems.SpheresConfig) error {
	rows := [][]string{}
	for _, c := range []struct {
		name string
		kind multigrid.CycleKind
	}{{"FMG (paper)", multigrid.FMG}, {"V-cycle", multigrid.VCycle}, {"W-cycle", multigrid.WCycle}} {
		its, _, err := solveSpheresWith(cfg, core.Options{}, multigrid.Options{Cycle: c.kind})
		if err != nil {
			return err
		}
		rows = append(rows, []string{c.name, fmt.Sprintf("%d", its)})
	}
	fmt.Fprintln(w, "Ablation — multigrid cycle used as the CG preconditioner")
	fmt.Fprint(w, perf.Table([]string{"cycle", "MG-PCG iters"}, rows))
	return nil
}

// solveSpheresWith runs one linear solve of the model problem with custom
// coarsening and MG options, returning iterations and the fine face count.
func solveSpheresWith(cfg problems.SpheresConfig, copts core.Options, mopts multigrid.Options) (int, int, error) {
	s := problems.NewSpheresConfig(cfg)
	h, err := core.Coarsen(s.Mesh, copts)
	if err != nil {
		return 0, 0, err
	}
	// Count fine faces for reporting.
	facets := s.Mesh.BoundaryFacets()
	adjF := mesh.FacetAdjacency(facets)
	tol := copts.TOL
	if tol == 0 {
		tol = topo.DefaultTOL
	}
	_, faces := topo.IdentifyFaces(facets, adjF, tol)

	dm, kred, rred, err := firstSystem(s)
	if err != nil {
		return 0, 0, err
	}
	mg, err := multigrid.New(kred, restrictions(h, dm), mopts)
	if err != nil {
		return 0, 0, err
	}
	x := make([]float64, kred.NRows)
	res := krylov.FPCG(kred, rred, x, mg, 1e-4, 3000)
	if !res.Converged {
		return res.Iterations, faces, fmt.Errorf("not converged in %d", res.Iterations)
	}
	return res.Iterations, faces, nil
}

// AMGCompare runs the section 8 comparison the paper planned: the MIS
// geometric coarsening of this paper against smoothed aggregation [25] on
// the same model problem, same smoother, same outer Krylov method.
func AMGCompare(w io.Writer) error { return amgCompare(w, seriesCfg(2)) }

func amgCompare(w io.Writer, cfg problems.SpheresConfig) error {
	s := problems.NewSpheresConfig(cfg)
	dm, kred, rred, err := firstSystem(s)
	if err != nil {
		return err
	}

	rows := [][]string{}
	solveWith := func(name string, rs []*sparse.CSR) error {
		mg, err := multigrid.New(kred, rs, multigrid.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		x := make([]float64, kred.NRows)
		res := krylov.FPCG(kred, rred, x, mg, 1e-4, 3000)
		if !res.Converged {
			return fmt.Errorf("%s: not converged", name)
		}
		rows = append(rows, []string{name, fmt.Sprintf("%d", mg.NumLevels()),
			fmt.Sprintf("%d", res.Iterations), fmt.Sprintf("%.2f", mg.OperatorComplexity())})
		return nil
	}

	// Prometheus (this paper): geometric MIS hierarchy.
	h, err := core.Coarsen(s.Mesh, core.Options{})
	if err != nil {
		return err
	}
	if err := solveWith("MIS geometric (this paper)", restrictions(h, dm)); err != nil {
		return err
	}

	// Smoothed aggregation [25] with rigid body modes.
	bnn := aggregation.RigidBodyModes(s.Mesh.Coords, dm.Full2Red, dm.NumFree())
	rsSA, err := aggregation.BuildRestrictions(kred, bnn, aggregation.Options{})
	if err != nil {
		return err
	}
	if err := solveWith("smoothed aggregation [25]", rsSA); err != nil {
		return err
	}

	fmt.Fprintln(w, "Section 8 — MIS geometric coarsening vs smoothed aggregation on the model problem")
	fmt.Fprint(w, perf.Table([]string{"hierarchy", "levels", "MG-PCG iters (rtol=1e-4)", "op complexity"}, rows))
	return nil
}

// AblationKrylov compares the outer Krylov methods with the same multigrid
// preconditioner: flexible CG (our default), plain PCG, and GMRES(30) (the
// solver family of the paper's reference [18]).
func AblationKrylov(w io.Writer) error { return ablationKrylov(w, seriesCfg(1)) }

func ablationKrylov(w io.Writer, cfg problems.SpheresConfig) error {
	s := problems.NewSpheresConfig(cfg)
	dm, kred, rred, err := firstSystem(s)
	if err != nil {
		return err
	}
	h, err := core.Coarsen(s.Mesh, core.Options{})
	if err != nil {
		return err
	}
	rs := restrictions(h, dm)
	rows := [][]string{}
	for _, method := range []struct {
		name  string
		solve func(x []float64, mg *multigrid.MG) krylov.Result
	}{
		{"flexible CG (default)", func(x []float64, mg *multigrid.MG) krylov.Result {
			return krylov.FPCG(kred, rred, x, mg, 1e-4, 500)
		}},
		{"plain PCG", func(x []float64, mg *multigrid.MG) krylov.Result {
			return krylov.PCG(kred, rred, x, mg, 1e-4, 500)
		}},
		{"GMRES(30) [18]", func(x []float64, mg *multigrid.MG) krylov.Result {
			return krylov.GMRES(kred, rred, x, mg, 30, 1e-4, 500)
		}},
	} {
		mg, err := multigrid.New(kred, rs, multigrid.Options{})
		if err != nil {
			return err
		}
		res := method.solve(make([]float64, kred.NRows), mg)
		conv := "yes"
		if !res.Converged {
			conv = "NO"
		}
		rows = append(rows, []string{method.name, fmt.Sprintf("%d", res.Iterations), conv})
	}
	fmt.Fprintln(w, "Ablation — outer Krylov method with the same FMG preconditioner")
	fmt.Fprint(w, perf.Table([]string{"method", "iters (rtol=1e-4)", "converged"}, rows))
	return nil
}

// Amortization demonstrates the section 6 three-phase cost structure: the
// mesh setup (restriction construction) is paid once per mesh, the matrix
// setup (Galerkin products + factorizations) once per assembled matrix,
// and the solve once per right-hand side. Linear transient analysis
// amortizes the first two; fully nonlinear analysis amortizes only the
// first (exactly the paper's discussion).
func Amortization(w io.Writer) error { return amortization(w, seriesCfg(1)) }

func amortization(w io.Writer, cfg problems.SpheresConfig) error {
	s := problems.NewSpheresConfig(cfg)
	phases := perf.NewPhases()
	var k *sparse.CSR
	var fint []float64
	var err error
	phases.Time("fine grid (per mesh)", func() { _, k, fint, err = assembleFirstTangent(s) })
	if err != nil {
		return err
	}
	dm, kred, rred := reduceFirstTangent(s, k, fint)

	var h *core.Hierarchy
	phases.Time("mesh setup (per mesh)", func() { h, err = core.Coarsen(s.Mesh, core.Options{}) })
	if err != nil {
		return err
	}
	rs := restrictions(h, dm)
	var mg *multigrid.MG
	phases.Time("matrix setup (per matrix)", func() { mg, err = multigrid.New(kred, rs, multigrid.Options{}) })
	if err != nil {
		return err
	}
	const nRHS = 8
	totalIts := 0
	phases.Time(fmt.Sprintf("solve x%d (per RHS)", nRHS), func() {
		for r := 0; r < nRHS; r++ {
			b := make([]float64, len(rred))
			for i := range b {
				b[i] = rred[i] * (1 + 0.1*float64(r))
			}
			b[r%len(b)] += 1e-6 // distinct RHS
			x := make([]float64, kred.NRows)
			res := krylov.FPCG(kred, b, x, mg, 1e-4, 2000)
			if !res.Converged {
				err = fmt.Errorf("rhs %d did not converge", r)
				return
			}
			totalIts += res.Iterations
		}
	})
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, name := range phases.Names() {
		rows = append(rows, []string{name, fmt.Sprintf("%.1f", float64(phases.Wall[name].Microseconds())/1000)})
	}
	fmt.Fprintln(w, "Section 6 — three-phase amortization (one mesh, one matrix, many right-hand sides)")
	fmt.Fprint(w, perf.Table([]string{"phase", "wall ms"}, rows))
	fmt.Fprintf(w, "%d RHS solved with one mesh + matrix setup (%d total PCG its); transient analyses amortize the setup phases exactly as section 6 describes\n", nRHS, totalIts)
	return nil
}
