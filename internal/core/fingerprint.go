package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"prometheus/internal/mesh"
	"prometheus/internal/sortutil"
)

// Fingerprint returns a deterministic content hash of everything the
// mesh-setup phase consumes: the mesh (element type, vertex coordinates,
// element connectivity, material ids), the Dirichlet constraint set, and
// the coarsening options. Two inputs with the same fingerprint produce
// bit-identical hierarchies, so the hash is a sound cache key for
// hierarchy reuse (the promserve service keys its hierarchy cache on it).
//
// The hash is position-exact — float64 coordinates and constraint values
// are hashed by their IEEE-754 bit patterns, so even a -0.0 vs +0.0
// difference changes the key (the coarsening is only proven bitwise
// reproducible for bit-identical input). Constraint dofs come from a Go
// map and are hashed in sorted order via sortutil.Keys, so the
// fingerprint never depends on map iteration order; everything else is
// slice data hashed in its natural, already-deterministic order.
func Fingerprint(m *mesh.Mesh, fixed map[int]float64, opts Options) string {
	opts = opts.withDefaults()
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	wInt := func(v int) { w64(uint64(int64(v))) }
	wF64 := func(v float64) { w64(math.Float64bits(v)) }

	// Mesh section: a leading tag per section keeps field boundaries
	// unambiguous (a vertex count can never collide with an element id).
	wInt(int(m.Type))
	wInt(len(m.Coords))
	for _, p := range m.Coords {
		wF64(p.X)
		wF64(p.Y)
		wF64(p.Z)
	}
	wInt(len(m.Elems))
	for _, conn := range m.Elems {
		for _, v := range conn {
			wInt(v)
		}
	}
	wInt(len(m.Mat))
	for _, id := range m.Mat {
		wInt(id)
	}

	// Constraint section, sorted so the map's iteration order is
	// irrelevant.
	wInt(len(fixed))
	for _, d := range sortutil.Keys(fixed) {
		wInt(d)
		wF64(fixed[d])
	}

	// Options section: every field that steers the coarsening. Hashing
	// the defaulted form makes Options{} and an explicitly-defaulted
	// Options hash identically.
	wF64(opts.TOL)
	wInt(opts.ReclassifyFrom)
	wInt(opts.MinCoarse)
	wInt(opts.MaxLevels)

	return hex.EncodeToString(h.Sum(nil))
}
