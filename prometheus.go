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
	// solver stack is written against; CSR, BSR and the matrix-free
	// EBEOperator all implement it.
	Operator = sparse.Operator
	// EBEOperator is the matrix-free element-by-element fine operator:
	// per-element stiffnesses applied gather/scatter with no assembled
	// fine-grid matrix (fem.EBEOperator). Build one with
	// Solver.MatrixFreeSystem.
	EBEOperator = fem.EBEOperator
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

// Storage modes for MGOptions.Storage: assembled scalar rows, assembled
// 3x3 node blocks, or the matrix-free element-by-element fine level.
const (
	StorageAuto       = multigrid.StorageAuto
	StorageCSR        = multigrid.StorageCSR
	StorageBSR        = multigrid.StorageBSR
	StorageMatrixFree = multigrid.StorageMatrixFree
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
// built by concurrent calls are independent.
func (s *Solver) Preconditioner(kred Operator) (*multigrid.MG, error) {
	rs, err := s.restrictions(kred)
	if err != nil {
		return nil, err
	}
	opts := s.Opts.MG
	if s.Opts.Hierarchy == GeometricMIS && s.dofMap.NodeAligned(3) && opts.Storage == StorageAuto &&
		(opts.BlockSize == 0 || opts.BlockSize == 3) {
		opts.Storage, opts.BlockSize = StorageBSR, 3
	}
	s.mu.Lock()
	plan := s.plan
	s.mu.Unlock()
	mg, plan, err := multigrid.Build(plan, kred, rs, opts)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		s.mu.Lock()
		s.plan = plan
		s.mu.Unlock()
	}
	return mg, nil
}

// restrictions returns the restriction chain, building it from kred on
// the first call of a smoothed-aggregation solver. Concurrent first calls
// wait for one build.
func (s *Solver) restrictions(kred Operator) ([]*sparse.CSR, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Opts.Hierarchy != SmoothedAggregation || s.rs != nil {
		return s.rs, nil
	}
	kc, ok := sparse.TryCSR(kred)
	if !ok {
		return nil, fmt.Errorf("prometheus: aggregation setup needs an assembled fine matrix, not a matrix-free operator")
	}
	b := aggregation.RigidBodyModes(s.Mesh.Coords, s.dofMap.Full2Red, s.dofMap.NumFree())
	rs, err := aggregation.BuildRestrictions(kc, b, aggregation.Options{})
	if err != nil {
		return nil, fmt.Errorf("prometheus: aggregation setup: %w", err)
	}
	s.rs = rs
	return rs, nil
}

// ReduceSystem eliminates the Dirichlet-constrained dofs from a
// full-numbering stiffness matrix and load vector, returning the reduced
// operator and right-hand side FPCG actually solves. It exposes the first
// half of SolveLinear so long-running callers (the serve layer) can split
// the solve into cacheable setup and per-request iteration while staying
// bitwise identical to SolveLinear.
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

// MatrixFreeSystem builds the reduced linear system in matrix-free form:
// an element-by-element operator over the free dofs (no assembled
// fine-grid matrix anywhere) plus the reduced right-hand side — the
// storage-mode-"mf" counterpart of assembling a stiffness and calling
// ReduceSystem. Pair the returned operator with
// Options.MG.Storage = StorageMatrixFree so the hierarchy
// Galerkin-assembles its first coarse level directly from the element
// stiffnesses.
func (s *Solver) MatrixFreeSystem(p *Problem, f []float64) (Operator, []float64, error) {
	u := make([]float64, s.Mesh.NumDOF())
	op, err := fem.NewEBEOperator(p, u, s.cons, s.dofMap)
	if err != nil {
		return nil, nil, fmt.Errorf("prometheus: matrix-free setup: %w", err)
	}
	fred := s.dofMap.RestrictVec(f)
	cf := op.ConstraintForce()
	for i := range fred {
		fred[i] -= cf[i]
	}
	return op, fred, nil
}

// SolveReduced solves the already-reduced system kred·x = fred with the
// multigrid-preconditioned FPCG and returns the full-length displacement
// with the prescribed values in place — the storage-agnostic core of
// SolveLinear, and the solve entry point for matrix-free systems built
// with MatrixFreeSystem.
func (s *Solver) SolveReduced(kred Operator, fred []float64) ([]float64, *Result, error) {
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

// SolveLinear solves K·u = f where K and f are assembled on the full dof
// numbering of the mesh and the solver's constraints prescribe u on the
// Dirichlet set. The returned u is full-length with the prescribed values
// in place.
func (s *Solver) SolveLinear(k *CSR, f []float64) ([]float64, *Result, error) {
	kred, fred := s.cons.Reduce(k, f, s.dofMap)
	return s.SolveReduced(kred, fred)
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
