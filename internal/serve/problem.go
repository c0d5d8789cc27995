package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	prometheus "prometheus"
	"prometheus/internal/core"
	"prometheus/internal/problems"
)

// Spec names one of the bundled parametric problems. It is the part of a
// solve request that determines the geometry, constraints and reference
// load — everything the mesh fingerprint, the hierarchy cache key, is
// derived from.
type Spec struct {
	// Problem is the problem kind: "cube" or "cantilever".
	Problem string `json:"problem"`
	// Size is the refinement parameter (same meaning as promsolve -size).
	Size int `json:"size"`
}

// Geometry is a built problem: mesh, Dirichlet set, materials and the
// unit reference load vector. It is cheap relative to hierarchy setup
// (structured generation, no assembly): the service builds it to learn a
// spec's fingerprint the first time it sees the spec, and again for a
// cache miss on a key it already knows.
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
// under the given coarsening options (core.Fingerprint). It is the
// hierarchy cache key: the only request parameters that change the cached
// setup products are the ones that select the geometry. The load scale is
// not part of it: an entry keeps the load map, and each request reduces
// its own scaled load through it.
func (g *Geometry) Fingerprint(opts prometheus.CoarsenOptions) string {
	return core.Fingerprint(g.Mesh, g.Cons.Fixed, opts)
}

// specKeys remembers the cache key of each (spec, coarsening options)
// pair the service has fingerprinted, so a request for a known geometry
// builds no mesh to find its entry. Requests choose only the spec, whose
// problem and size validate bounds, so it holds at most 2·maxSize keys.
type specKeys struct {
	mu   sync.Mutex
	keys map[specKey]string
}

type specKey struct {
	spec Spec
	opts prometheus.CoarsenOptions
}

// lookup returns spec's cache key under opts. The first time it sees the
// pair it builds the geometry to fingerprint it and returns that geometry
// too; afterwards g is nil.
func (k *specKeys) lookup(spec Spec, opts prometheus.CoarsenOptions) (key string, g *Geometry, err error) {
	sk := specKey{spec, opts}
	k.mu.Lock()
	key, ok := k.keys[sk]
	k.mu.Unlock()
	if ok {
		return key, nil, nil
	}
	if g, err = BuildGeometry(spec); err != nil {
		return "", nil, err
	}
	key = g.Fingerprint(opts)
	k.mu.Lock()
	if k.keys == nil {
		k.keys = make(map[specKey]string)
	}
	k.keys[sk] = key
	k.mu.Unlock()
	return key, g, nil
}

// solverOptions maps request-level solve parameters onto the library
// options. The same mapping is used by the cache build and by
// DirectSolve, so the two paths configure identical solvers: flexible CG
// around one FMG cycle, the paper's solver.
func solverOptions(rtol float64, maxIters int) prometheus.Options {
	return prometheus.Options{RTol: rtol, MaxIters: maxIters}
}

// DirectSolve runs the promsolve-style pipeline for a spec without any
// service machinery: build, assemble, NewSolver, SolveLinear. It is the
// reference the serve path is verified bitwise-identical against.
//
// The cycle, storage and precision parameters are leftovers of retired
// options, kept because bench/ passes them and product PRs may not edit
// bench/: cycle accepts only "" and "fmg" (the service solves with FMG),
// storage only "" and "auto" (the multigrid reads the storage from the
// operator), precision only "" and "f64". All three wait for the next
// [benchmark] PR to drop them (ROADMAP item 1(a)).
func DirectSolve(spec Spec, scale, rtol float64, maxIters int, cycle, storage, precision string) ([]float64, *prometheus.Result, error) {
	if cycle != "" && cycle != "fmg" {
		return nil, nil, fmt.Errorf("serve: unknown cycle %q (the service solves with FMG)", cycle)
	}
	if storage != "" && storage != "auto" {
		return nil, nil, fmt.Errorf("serve: unknown storage %q (the storage is read from the operator)", storage)
	}
	if precision != "" && precision != "f64" {
		return nil, nil, fmt.Errorf("serve: unknown precision %q (every level is f64)", precision)
	}
	g, err := BuildGeometry(spec)
	if err != nil {
		return nil, nil, err
	}
	solver, err := prometheus.NewSolver(g.Mesh, g.Cons, solverOptions(rtol, maxIters))
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
