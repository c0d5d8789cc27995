// Package prometheus is a Go reproduction of the parallel multigrid solver
// for 3D unstructured finite element problems of Adams & Demmel (SC 1999)
// — the Prometheus solver. It automatically builds a hierarchy of coarse
// grids from a fine unstructured mesh using maximal independent sets with
// geometric heuristics (vertex classification, face identification,
// modified MIS graphs), remeshes the coarse vertex sets with Delaunay
// tetrahedra, constructs restriction operators from linear tetrahedral
// shape functions, forms Galerkin coarse operators R·A·Rᵀ, and solves with
// conjugate gradients preconditioned by one full multigrid cycle.
//
// The public API wraps the internal packages: build a mesh (or use one of
// the bundled problem generators), define constraints and materials,
// create a Solver (which runs the one-time "mesh setup" — the coarsening),
// then solve linear systems or run the Newton driver for nonlinear
// problems. See the examples directory for complete programs.
package prometheus

import (
	"fmt"
	"sync"

	"prometheus/internal/aggregation"
	"prometheus/internal/core"
	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/krylov"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/multigrid"
	"prometheus/internal/newton"
	"prometheus/internal/sparse"
)

// Re-exported core types: these aliases form the public surface of the
// library; user code never imports the internal packages.
type (
	// Vec3 is a 3D point/vector.
	Vec3 = geom.Vec3
	// Mesh is an unstructured Hex8/Tet4 finite element mesh.
	Mesh = mesh.Mesh
	// Constraints holds Dirichlet boundary conditions.
	Constraints = fem.Constraints
	// Problem couples a mesh with materials and integration-point state.
	Problem = fem.Problem
	// Model is a constitutive model.
	Model = material.Model
	// CSR is a sparse matrix in compressed sparse row form.
	CSR = sparse.CSR
	// BSR is a block compressed sparse row matrix (3x3 node blocks for
	// elasticity) — the PETSc BAIJ analogue the paper credits for its
	// per-processor Mflop rate.
	BSR = sparse.BSR
	// Operator is the storage-agnostic sparse operator interface the
	// solver stack is written against; CSR and BSR implement it.
	Operator = sparse.Operator
	// EBEOperator is the element-by-element product of the reduced
	// stiffness (fem.EBEOperator): per-element stiffnesses applied
	// gather/scatter with no assembled matrix. It is not an Operator and
	// no solver takes one; Solver.MatrixFreeSystem builds it to be timed.
	EBEOperator = fem.EBEOperator
	// LoadMap turns a load vector into the reduced right-hand side of one
	// operator and constraint set (fem.LoadMap); get one from
	// Solver.LinearOperator.
	LoadMap = fem.LoadMap
	// CoarsenOptions controls the MIS coarsening (core.Options).
	CoarsenOptions = core.Options
	// MGOptions controls the multigrid cycle (multigrid.Options).
	MGOptions = multigrid.Options
	// NewtonConfig drives the nonlinear solver (newton.Config).
	NewtonConfig = newton.Config
	// NewtonStats reports the nonlinear solve (newton.Stats).
	NewtonStats = newton.Stats
	// StopReason says why a linear solve ended (krylov.StopReason): its
	// String form is one of converged, max_iters, indefinite, non_finite,
	// breakdown, cancelled.
	StopReason = krylov.StopReason
	// Hierarchy is the coarse grid stack built by the solver.
	Hierarchy = core.Hierarchy
	// LinearElastic, NeoHookean and J2Plasticity are the bundled material
	// models (Table 1 of the paper).
	LinearElastic = material.LinearElastic
	// NeoHookean is the compressible hyperelastic model.
	NeoHookean = material.NeoHookean
	// J2Plasticity is radial-return plasticity with kinematic hardening.
	J2Plasticity = material.J2Plasticity
)

// Cycle kinds for MGOptions.Cycle.
const (
	FMG    = multigrid.FMG
	VCycle = multigrid.VCycle
)

// NewStructuredHexMesh builds an nx×ny×nz hexahedral mesh of a box; matFn
// (optional) assigns material ids by element centroid.
func NewStructuredHexMesh(nx, ny, nz int, lx, ly, lz float64, matFn func(Vec3) int) *Mesh {
	return mesh.StructuredHex(nx, ny, nz, lx, ly, lz, matFn)
}

// NewStructuredHex20Mesh builds an nx×ny×nz 20-node serendipity
// hexahedral mesh of a box — the paper's "higher order elements" future
// work; the coarsening and solver pipeline is element-order agnostic.
func NewStructuredHex20Mesh(nx, ny, nz int, lx, ly, lz float64, matFn func(Vec3) int) *Mesh {
	return mesh.StructuredHex20(nx, ny, nz, lx, ly, lz, matFn)
}

// HexMeshToTets splits every hexahedron of a Hex8 mesh into six positively
// oriented tetrahedra (materials inherited), producing a simplicial fine
// grid for the solver.
func HexMeshToTets(m *Mesh) *Mesh { return mesh.HexToTets(m) }

// NewConstraints returns an empty Dirichlet constraint set.
func NewConstraints() *Constraints { return fem.NewConstraints() }

// NewProblem couples a mesh with materials (indexed by the mesh's material
// ids). bbar enables the mean-dilatation element for near-incompressible
// materials.
func NewProblem(m *Mesh, models []Model, bbar bool) *Problem {
	return fem.NewProblem(m, models, bbar)
}

// TableOneMaterials returns the paper's Table 1 database: index 0 the
// "soft" Neo-Hookean rubber, index 1 the "hard" J2-plastic steel.
func TableOneMaterials() []Model { return material.Database() }

// HierarchyKind selects the coarse-grid construction algorithm.
type HierarchyKind int

const (
	// GeometricMIS is the paper's algorithm: MIS coarsening with geometric
	// heuristics, Delaunay remeshing, linear tetrahedral restriction.
	GeometricMIS HierarchyKind = iota
	// SmoothedAggregation is the Vaněk/Mandel/Brezina alternative the
	// paper names as future work (reference [25]); the hierarchy is built
	// algebraically from the first assembled operator with rigid body
	// modes, so it becomes available at the first SolveLinear /
	// SolveNonlinear call rather than at NewSolver.
	SmoothedAggregation
)

// Options configures a Solver.
type Options struct {
	// Coarsen controls the mesh-setup phase (MIS coarsening).
	Coarsen CoarsenOptions
	// MG controls the multigrid preconditioner.
	MG MGOptions
	// Hierarchy selects between the paper's geometric MIS coarsening
	// (default) and smoothed aggregation.
	Hierarchy HierarchyKind
	// RTol is the relative residual tolerance of linear solves
	// (default 1e-4, the paper's first-solve tolerance).
	RTol float64
	// MaxIters bounds the Krylov iterations (default 1000).
	MaxIters int
}

func (o Options) withDefaults() Options {
	if o.RTol == 0 {
		o.RTol = 1e-4
	}
	if o.MaxIters == 0 {
		o.MaxIters = 1000
	}
	return o
}

// Solver owns the mesh-setup product: the grid hierarchy and restriction
// operators for one mesh + constraint set. It can then solve any number of
// linear systems (or Newton iterations) assembled on that mesh.
type Solver struct {
	Mesh *Mesh
	Hier *Hierarchy
	Opts Options

	cons   *Constraints
	dofMap *fem.DofMap
	// grids[l] is the index in Hier.Grids of multigrid level l's grid.
	grids []int

	// mu guards rs, which a smoothed-aggregation solver builds from the
	// first operator it sees, and plan, the symbolic half of the last
	// hierarchy built. Concurrent Preconditioner calls (a serve entry's
	// leases) share both; each returned MG owns its values.
	mu   sync.Mutex
	rs   []*sparse.CSR
	plan *multigrid.Plan
}

// NewSolver runs the mesh setup: coarsening, remeshing and restriction
// construction (the Prometheus phase of Figure 10). With
// Options.Hierarchy == SmoothedAggregation the restriction chain is
// instead built algebraically from the first assembled operator.
func NewSolver(m *Mesh, cons *Constraints, opts Options) (*Solver, error) {
	opts = opts.withDefaults()
	// Increments and corrections satisfy the homogeneous constraints.
	dm := cons.Homogeneous().NewDofMap(m.NumDOF())
	s := &Solver{Mesh: m, Opts: opts, cons: cons, dofMap: dm}
	if opts.Hierarchy == SmoothedAggregation {
		return s, nil // restrictions built lazily from the first operator
	}
	h, err := core.Coarsen(m, opts.Coarsen)
	if err != nil {
		return nil, fmt.Errorf("prometheus: mesh setup: %w", err)
	}
	s.Hier = h
	counts, _ := h.VertexReduction()
	s.grids = keptGrids(counts)
	for i := 1; i < len(s.grids); i++ {
		// The restriction from level i-1 to level i, through every grid
		// folded between them.
		var r *sparse.CSR
		for l := s.grids[i-1] + 1; l <= s.grids[i]; l++ {
			gr := h.Grids[l].R
			if l == 1 {
				gr = multigrid.CompressCols(gr, dm.Full2Red, dm.NumFree())
			}
			if r == nil {
				r = gr
			} else {
				r = gr.Mul(r)
			}
		}
		s.rs = append(s.rs, r)
	}
	return s, nil
}

// keptGrids returns, finest first, the grids the multigrid cycle visits
// out of a hierarchy with the given vertex counts. A grid that keeps more
// than 7/10 of the vertices of the last grid kept above it is stalled:
// FMG smooths level k k+1 times per apply, so such a grid costs about its
// parent's smoothing again for little coarsening. The solver folds it,
// composing its restriction into the next grid's, and neither the
// Galerkin chain nor the cycle sees it. The coarsest grid is always kept.
func keptGrids(counts []int) []int {
	kept := []int{0}
	for l := 1; l < len(counts); l++ {
		if l == len(counts)-1 || 10*counts[l] <= 7*counts[kept[len(kept)-1]] {
			kept = append(kept, l)
		}
	}
	return kept
}

// NumLevels returns the number of levels the multigrid cycle visits: the
// grids of the hierarchy less those folded as stalled (for smoothed
// aggregation, the number of operators once the chain has been built).
func (s *Solver) NumLevels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rs) + 1
}

// LevelGrid returns the index in Hier.Grids of the grid behind multigrid
// level l: l itself unless a stalled grid above it was folded. It is -1
// for smoothed-aggregation solvers, which carry no grids.
func (s *Solver) LevelGrid(l int) int {
	if s.Hier == nil {
		return -1
	}
	return s.grids[l]
}

// Result reports a linear solve.
type Result struct {
	Iterations int
	Residuals  []float64
	Converged  bool
	// Reason is why the Krylov iteration ended; anything but convergence
	// also comes back as the error of the solve call.
	Reason     StopReason
	SolveFlops int64
	SetupFlops int64
	Levels     int
}

// Preconditioner builds the multigrid preconditioner for a reduced
// operator (the per-matrix setup phase: Galerkin products, block
// factorizations). For SmoothedAggregation hierarchies the restriction
// chain is built from the first operator seen and reused afterwards.
// Storage is read from the operator (multigrid.Build): a reduced CSR that
// blocks into 3x3 node blocks with no fill, as it does when every vertex
// is fully free or fully fixed, is applied in blocks, and each Galerkin
// level below is one matrix, formed, pinned and applied in 3x3 blocks
// wherever its pattern blocks, whatever the fine level is. A *BSR is
// level 0 as handed in: mg.Levels[0].A of a hierarchy built on a blocked
// CSR serves as the operator of the next build with the same pattern, so
// every hierarchy built on it shares one fine matrix.
//
// The solver keeps the plan of the last hierarchy it built — patterns,
// partitions, orderings (multigrid.Plan). An operator with the same
// dimensions and, index for index, the same pattern as the last one (every
// Newton tangent of a mesh) only fills it with values, bit for bit the
// hierarchy a fresh Solver builds. Every returned MG owns its values and
// scratch and shares only the plan's immutable patterns, so hierarchies
// built by concurrent calls are independent. kred must be a *CSR or a
// *BSR; any other operator is an error.
func (s *Solver) Preconditioner(kred Operator) (*multigrid.MG, error) {
	rs, err := s.restrictions(kred)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	plan := s.plan
	s.mu.Unlock()
	mg, plan, err := multigrid.Build(plan, kred, rs, s.Opts.MG)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.plan = plan
	s.mu.Unlock()
	return mg, nil
}

// PlanBytes returns the bytes of the index arrays that the plan of the
// last hierarchy built keeps alive beyond the hierarchies filled from it
// (multigrid.Plan.PatternBytes); 0 before the first Preconditioner call.
func (s *Solver) PlanBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan == nil {
		return 0
	}
	return s.plan.PatternBytes()
}

// restrictions returns the restriction chain, building it from kred on
// the first call of a smoothed-aggregation solver, which reads its entries
// and so first checks that it has them. Concurrent first calls wait for
// one build.
func (s *Solver) restrictions(kred Operator) ([]*sparse.CSR, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Opts.Hierarchy != SmoothedAggregation || s.rs != nil {
		return s.rs, nil
	}
	if err := multigrid.CheckAssembled(kred); err != nil {
		return nil, err
	}
	b := aggregation.RigidBodyModes(s.Mesh.Coords, s.dofMap.Full2Red, s.dofMap.NumFree())
	rs, err := aggregation.BuildRestrictions(sparse.AsCSR(kred), b)
	if err != nil {
		return nil, fmt.Errorf("prometheus: aggregation setup: %w", err)
	}
	s.rs = rs
	return rs, nil
}

// ReduceSystem eliminates the Dirichlet-constrained dofs from a
// full-numbering blocked stiffness matrix (Problem.AssembleTangent's) and
// load vector, returning the reduced scalar operator and right-hand side
// FPCG actually solves. It exposes the first half of SolveLinear so
// callers can split the solve into setup and iteration while staying
// bitwise identical to SolveLinear; LinearOperator keeps the load map
// instead, for an operator solved under many loads.
func (s *Solver) ReduceSystem(k *BSR, f []float64) (*CSR, []float64) {
	kred, lm := s.cons.Reduce(k, s.dofMap)
	fred := make([]float64, s.dofMap.NumFree())
	lm.Apply(fred, f, 1)
	return kred, fred
}

// ExpandSolution scatters a reduced-system solution back to the full dof
// numbering with the prescribed Dirichlet values in place — the second
// half of SolveLinear. The input x is not modified.
func (s *Solver) ExpandSolution(x []float64) []float64 {
	u := make([]float64, s.Mesh.NumDOF())
	s.cons.Expand(x, s.dofMap, u)
	return u
}

// FreeDofs returns the full-numbering index of every free dof, in the
// order of the reduced system: entry r of a reduced vector belongs to dof
// FreeDofs()[r]. The slice is the solver's own and must not be written.
func (s *Solver) FreeDofs() []int { return s.dofMap.Red2Full }

// Fingerprint returns the deterministic content hash of this solver's
// mesh, constraint set and coarsening options (core.Fingerprint). Two
// solvers with equal fingerprints build bit-identical hierarchies, so the
// hash is a sound key for hierarchy caching.
func (s *Solver) Fingerprint() string {
	return core.Fingerprint(s.Mesh, s.cons.Fixed, s.Opts.Coarsen)
}

// MatrixFreeSystem builds the reduced linear system in element-by-element
// form: the operator over the free dofs, with no assembled matrix, and the
// reduced right-hand side of f. It exists to be timed against the
// assembled product; the operator goes to no solver.
func (s *Solver) MatrixFreeSystem(p *Problem, f []float64) (*EBEOperator, []float64, error) {
	u := make([]float64, s.Mesh.NumDOF())
	op, err := fem.NewEBEOperator(p, u, s.cons, s.dofMap)
	if err != nil {
		return nil, nil, fmt.Errorf("prometheus: element-by-element setup: %w", err)
	}
	fred := make([]float64, s.dofMap.NumFree())
	op.LoadMap(s.dofMap).Apply(fred, f, 1)
	return op, fred, nil
}

// LinearOperator builds the reduced operator of p at zero displacement and
// its load map (fem.LoadMap), with no right-hand side: the tangent
// assembled and reduced. Kept beside the operator, the map serves every
// load: Apply(fred, f, s) writes, bit for bit, the right-hand side that
// ReduceSystem returns for the load vector s·f.
func (s *Solver) LinearOperator(p *Problem) (Operator, *LoadMap, error) {
	k, _, err := p.AssembleTangent(make([]float64, s.Mesh.NumDOF()))
	if err != nil {
		return nil, nil, fmt.Errorf("prometheus: assembly: %w", err)
	}
	kred, lm := s.cons.Reduce(k, s.dofMap)
	return kred, lm, nil
}

// SolveLinear solves K·u = f where K (blocked, as Problem.AssembleTangent
// returns it) and f are assembled on the full dof numbering of the mesh
// and the solver's constraints prescribe u on the Dirichlet set, with the
// multigrid-preconditioned FPCG. The returned u is
// full-length with the prescribed values in place. FPCG multiplies by the
// hierarchy's level 0, the reduced matrix in the storage multigrid applies
// it in: blocking is a kernel choice, so every product is bit for bit the
// reduced CSR's.
func (s *Solver) SolveLinear(k *BSR, f []float64) ([]float64, *Result, error) {
	kred, fred := s.ReduceSystem(k, f)
	mg, err := s.Preconditioner(kred)
	if err != nil {
		return nil, nil, fmt.Errorf("prometheus: matrix setup: %w", err)
	}
	x := make([]float64, kred.Rows())
	res := krylov.FPCG(mg.Levels[0].A, fred, x, mg, s.Opts.RTol, s.Opts.MaxIters)
	u := s.ExpandSolution(x)
	out := &Result{
		Iterations: res.Iterations,
		Residuals:  res.Residuals,
		Converged:  res.Converged,
		Reason:     res.Reason,
		SolveFlops: res.Flops + mg.Flops(),
		SetupFlops: mg.SetupFlops,
		Levels:     mg.NumLevels(),
	}
	if !res.Converged {
		return u, out, fmt.Errorf("prometheus: linear solve did not reach rtol=%g in %d iterations (%v)",
			s.Opts.RTol, res.Iterations, res.Reason)
	}
	return u, out, nil
}

// SolveNonlinear runs the paper's Newton strategy on a problem assembled
// over this solver's mesh: the constraint values are ramped over
// cfg.Steps load steps with the dynamic linear tolerances of section 7.2.
// hardMat (-1 to disable) selects the material whose plastic fraction is
// tracked.
func (s *Solver) SolveNonlinear(p *Problem, cfg NewtonConfig, hardMat int) ([]float64, *NewtonStats, error) {
	factory := func(k sparse.Operator) (krylov.Preconditioner, error) {
		return s.Preconditioner(k)
	}
	return newton.Solve(p, s.cons, cfg, factory, hardMat)
}

// VertexReduction reports the per-level vertex counts and reduction ratios
// of the geometric hierarchy (the Figure 7 statistics); nil for smoothed
// aggregation hierarchies, which carry no meshes.
func (s *Solver) VertexReduction() ([]int, []float64) {
	if s.Hier == nil {
		return nil, nil
	}
	return s.Hier.VertexReduction()
}
