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
	// StorageKind selects the per-level operator storage of the multigrid
	// hierarchy (multigrid.StorageKind); set it on MGOptions.Storage.
	StorageKind = multigrid.StorageKind
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
	WCycle = multigrid.WCycle
)

// Storage modes for MGOptions.Storage: the operator as handed in with
// blocked Galerkin levels, assembled scalar rows everywhere, or assembled
// 3x3 node blocks from the fine level down.
const (
	StorageAuto = multigrid.StorageAuto
	StorageCSR  = multigrid.StorageCSR
	StorageBSR  = multigrid.StorageBSR
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
	// Homogeneous variant of the constraints for increments/corrections.
	zero := fem.NewConstraints()
	for d := range cons.Fixed {
		zero.FixDof(d, 0)
	}
	dm := zero.NewDofMap(m.NumDOF())
	s := &Solver{Mesh: m, Opts: opts, cons: cons, dofMap: dm}
	if opts.Hierarchy == SmoothedAggregation {
		return s, nil // restrictions built lazily from the first operator
	}
	h, err := core.Coarsen(m, opts.Coarsen)
	if err != nil {
		return nil, fmt.Errorf("prometheus: mesh setup: %w", err)
	}
	s.Hier = h
	for l := 1; l < h.NumLevels(); l++ {
		r := h.Grids[l].R
		if l == 1 {
			r = multigrid.CompressCols(r, dm.Full2Red, dm.NumFree())
		}
		s.rs = append(s.rs, r)
	}
	return s, nil
}

// NumLevels returns the number of grids in the hierarchy (for smoothed
// aggregation, the number of operators once the chain has been built).
func (s *Solver) NumLevels() int {
	if s.Hier == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.rs) + 1
	}
	return s.Hier.NumLevels()
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
// Geometric hierarchies on node-aligned constraint sets (every vertex
// fully free or fully fixed) under the default storage block the fine
// operator into 3x3-node BSR (multigrid.StorageBSR); the Galerkin levels
// below are blocked level by level whatever the fine level is.
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
	opts := s.Opts.MG
	if s.Opts.Hierarchy == GeometricMIS && s.dofMap.NodeAligned(3) && opts.Storage == StorageAuto {
		opts.Storage = StorageBSR
	}
	s.mu.Lock()
	plan := s.plan
	s.mu.Unlock()
	mg, plan, err := multigrid.Build(plan, kred, rs, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.plan = plan
	s.mu.Unlock()
	return mg, nil
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
	rs, err := aggregation.BuildRestrictions(sparse.AsCSR(kred), b, aggregation.Options{})
	if err != nil {
		return nil, fmt.Errorf("prometheus: aggregation setup: %w", err)
	}
	s.rs = rs
	return rs, nil
}

// ReduceSystem eliminates the Dirichlet-constrained dofs from a
// full-numbering stiffness matrix and load vector, returning the reduced
// operator and right-hand side FPCG actually solves. It exposes the first
// half of SolveLinear so callers can split the solve into setup and
// iteration while staying bitwise identical to SolveLinear;
// LinearOperator keeps the load map instead, for an operator solved under
// many loads.
func (s *Solver) ReduceSystem(k *CSR, f []float64) (*CSR, []float64) {
	return s.cons.Reduce(k, f, s.dofMap)
}

// ExpandSolution scatters a reduced-system solution back to the full dof
// numbering with the prescribed Dirichlet values in place — the second
// half of SolveLinear. The input x is not modified.
func (s *Solver) ExpandSolution(x []float64) []float64 {
	u := make([]float64, s.Mesh.NumDOF())
	s.cons.Expand(x, s.dofMap, u)
	return u
}

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
	kred, lm := s.cons.ReduceOperator(k, s.dofMap)
	return kred, lm, nil
}

// SolveLinear solves K·u = f where K and f are assembled on the full dof
// numbering of the mesh and the solver's constraints prescribe u on the
// Dirichlet set, with the multigrid-preconditioned FPCG. The returned u is
// full-length with the prescribed values in place.
func (s *Solver) SolveLinear(k *CSR, f []float64) ([]float64, *Result, error) {
	kred, fred := s.cons.Reduce(k, f, s.dofMap)
	mg, err := s.Preconditioner(kred)
	if err != nil {
		return nil, nil, fmt.Errorf("prometheus: matrix setup: %w", err)
	}
	x := make([]float64, kred.Rows())
	res := krylov.FPCG(kred, fred, x, mg, s.Opts.RTol, s.Opts.MaxIters)
	u := make([]float64, s.Mesh.NumDOF())
	s.cons.Expand(x, s.dofMap, u)
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
