package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync/atomic"

	prometheus "prometheus"
	"prometheus/internal/core"
	"prometheus/internal/problems"
)

// Spec names one of the bundled parametric problems. It is the part of a
// solve request that determines the geometry, constraints and reference
// load — everything the mesh fingerprint (and so the hierarchy cache key)
// is derived from.
type Spec struct {
	// Problem is the problem kind: "cube" or "cantilever".
	Problem string `json:"problem"`
	// Size is the refinement parameter (same meaning as promsolve -size).
	Size int `json:"size"`
}

// Geometry is a built problem: mesh, Dirichlet set, materials and the
// unit reference load vector. It is cheap relative to hierarchy setup
// (structured generation, no assembly), so the service rebuilds it per
// request to compute the fingerprint before consulting the cache.
type Geometry struct {
	// Mesh is the fine-grid mesh.
	Mesh *prometheus.Mesh
	// Cons is the Dirichlet constraint set.
	Cons *prometheus.Constraints
	// Models are the material models indexed by mesh material id.
	Models []prometheus.Model
	// Load is the reference external force vector (full dof numbering);
	// requests scale it by their load_scale.
	Load []float64
}

// validate rejects a spec BuildGeometry cannot build: an unknown problem
// or a size outside 1..maxSize. The handler runs it with the rest of the
// request's checks, before admission, so a bad spec costs no slot.
func (spec Spec) validate() error {
	if spec.Problem != "cube" && spec.Problem != "cantilever" {
		return fmt.Errorf("serve: unknown problem %q (want cube or cantilever)", spec.Problem)
	}
	if spec.Size < 1 {
		return fmt.Errorf("serve: size must be >= 1, got %d", spec.Size)
	}
	if spec.Size > maxSize {
		return fmt.Errorf("serve: size %d exceeds the service limit %d", spec.Size, maxSize)
	}
	return nil
}

// geometryBuilds counts the geometries BuildGeometry has built, so tests
// can tell which requests got as far as building a mesh.
var geometryBuilds atomic.Int64

// BuildGeometry constructs the named problem exactly as cmd/promsolve
// does, so served solves are comparable (bitwise) to command-line runs of
// the same spec.
func BuildGeometry(spec Spec) (*Geometry, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	geometryBuilds.Add(1)
	if spec.Problem == "cube" {
		c := problems.NewCube(4*spec.Size, prometheus.LinearElastic{E: 1, Nu: 0.3}, -0.001)
		return &Geometry{Mesh: c.Mesh, Cons: c.Cons, Models: c.Models, Load: c.Load}, nil
	}
	// "cantilever", the only other problem validate admits.
	c := problems.NewCantilever(6*spec.Size, spec.Size, spec.Size, 6,
		prometheus.LinearElastic{E: 1, Nu: 0.3}, -0.0001)
	return &Geometry{Mesh: c.Mesh, Cons: c.Cons, Models: c.Models, Load: c.Load}, nil
}

// maxSize bounds the refinement parameter a request may ask for: the
// service is memory-bounded by construction, like its queues.
const maxSize = 8

// AssembleLinear assembles the tangent stiffness at zero displacement and
// the scaled load vector — the expensive fine-grid-creation phase, run
// once per cache entry and skipped on warm hits.
func (g *Geometry) AssembleLinear(scale float64) (*prometheus.CSR, []float64, error) {
	p := prometheus.NewProblem(g.Mesh, g.Models, false)
	u := make([]float64, g.Mesh.NumDOF())
	k, _, err := p.AssembleTangent(u)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: assembly: %w", err)
	}
	f := make([]float64, len(g.Load))
	for i, v := range g.Load {
		f[i] = scale * v
	}
	return k, f, nil
}

// Fingerprint returns the deterministic content hash of the geometry
// under the given coarsening options (core.Fingerprint): the part of the
// cache key that identifies the hierarchy.
func (g *Geometry) Fingerprint(opts prometheus.CoarsenOptions) string {
	return core.Fingerprint(g.Mesh, g.Cons.Fixed, opts)
}

// storageLabel is the canonical cache-key component for a storage mode.
// Derived from the resolved options (not the raw request string), so two
// spellings that configure the same solver can never produce distinct
// keys, and two modes that cache different products can never collide.
func storageLabel(k prometheus.StorageKind) string {
	switch k {
	case prometheus.StorageCSR:
		return "csr"
	case prometheus.StorageBSR:
		return "bsr"
	default:
		return "auto"
	}
}

// cacheKey derives the full cache key, fingerprint/cycle/storage: the
// mesh fingerprint plus the solve-variant parameters that change the
// cached setup products (cycle shapes the multigrid built from the
// hierarchy, storage shapes the cached operator hierarchy itself). The
// load scale is not part of it: an entry keeps the load map, and each
// request reduces its own scaled load through it. Storage comes from the
// resolved options, so two spellings of one mode share an entry.
func cacheKey(fp string, cycle string, opts prometheus.Options) string {
	return fp + "/" + cycle + "/" + storageLabel(opts.MG.Storage)
}

// solverOptions maps request-level solve parameters onto the library
// options. The same mapping is used by the cache build and by
// DirectSolve, so the two paths configure identical solvers.
func solverOptions(rtol float64, maxIters int, cycle, storage string) (prometheus.Options, error) {
	opts := prometheus.Options{RTol: rtol, MaxIters: maxIters}
	switch cycle {
	case "", "fmg":
		// FMG is the default cycle (the paper's preconditioner).
	case "v":
		opts.MG.Cycle = prometheus.VCycle
	default:
		return opts, fmt.Errorf("serve: unknown cycle %q (want fmg or v)", cycle)
	}
	switch storage {
	case "", "auto":
		// Follow the fine operator (assembled CSR on this service).
	case "csr":
		opts.MG.Storage = prometheus.StorageCSR
	case "bsr":
		opts.MG.Storage = prometheus.StorageBSR
	default:
		return opts, fmt.Errorf("serve: unknown storage %q (want auto, csr or bsr)", storage)
	}
	return opts, nil
}

// DirectSolve runs the promsolve-style pipeline for a spec without any
// service machinery: build, assemble, NewSolver, SolveLinear. It is the
// reference the serve path is verified bitwise-identical against.
//
// The trailing precision parameter is a leftover of the retired
// single-precision storage mode, kept because bench/ passes it and
// product PRs may not edit bench/: only "" and "f64" are accepted. The
// next [benchmark] PR drops it (ROADMAP item 4).
func DirectSolve(spec Spec, scale, rtol float64, maxIters int, cycle, storage, precision string) ([]float64, *prometheus.Result, error) {
	if precision != "" && precision != "f64" {
		return nil, nil, fmt.Errorf("serve: unknown precision %q (every level is f64)", precision)
	}
	g, err := BuildGeometry(spec)
	if err != nil {
		return nil, nil, err
	}
	opts, err := solverOptions(rtol, maxIters, cycle, storage)
	if err != nil {
		return nil, nil, err
	}
	solver, err := prometheus.NewSolver(g.Mesh, g.Cons, opts)
	if err != nil {
		return nil, nil, err
	}
	k, f, err := g.AssembleLinear(scale)
	if err != nil {
		return nil, nil, err
	}
	return solver.SolveLinear(k, f)
}

// SolutionHash returns the hex sha256 over the IEEE-754 bit patterns of a
// solution vector. Two vectors hash equal iff they are bitwise identical,
// so clients (and the CI gate) can verify served results against direct
// runs without shipping the full vector.
func SolutionHash(u []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range u {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	return hex.EncodeToString(h.Sum(nil))
}
