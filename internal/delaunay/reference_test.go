package delaunay

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/sortutil"
)

// The map-based insertion the stamped one replaced, kept as the reference
// it must equal slot for slot: the cavity and the set reached from its
// start tet are Go maps, the faces through the new point are matched
// through a map, and the walk writes its result to lastHit.

// referenceNew is New over referenceInsert.
func referenceNew(pts []geom.Vec3) (*Triangulation, error) {
	if len(pts) == 0 {
		return nil, ErrDegenerate
	}
	tr := boxed(pts)
	for i := 0; i < tr.nUser; i++ {
		if err := referenceInsert(tr, i); err != nil {
			return nil, fmt.Errorf("delaunay: inserting point %d: %w", i, err)
		}
	}
	return tr, nil
}

// referenceLocate is the walk that kept its start in lastHit.
func referenceLocate(tr *Triangulation, p int) int {
	cur := tr.lastHit
	if cur < 0 || cur >= len(tr.tets) || !tr.tets[cur].alive {
		cur = tr.anyAlive()
		if cur < 0 {
			return -1
		}
	}
	maxSteps := 4 * (len(tr.tets) + 16)
	for step := 0; step < maxSteps; step++ {
		t := &tr.tets[cur]
		moved := false
		for f := 0; f < 4; f++ {
			fc := t.faceOf(f)
			if tr.orientP(fc[0], fc[1], fc[2], p) > 0 {
				continue
			}
			if tr.orientP(fc[0], fc[1], fc[2], p) < 0 {
				nb := t.adj[f]
				if nb < 0 || !tr.tets[nb].alive {
					return -1
				}
				cur = nb
				moved = true
				break
			}
		}
		if !moved {
			tr.lastHit = cur
			return cur
		}
	}
	for ti := range tr.tets {
		t := &tr.tets[ti]
		if !t.alive {
			continue
		}
		inside := true
		for f := 0; f < 4; f++ {
			fc := t.faceOf(f)
			if tr.orientP(fc[0], fc[1], fc[2], p) < 0 {
				inside = false
				break
			}
		}
		if inside {
			tr.lastHit = ti
			return ti
		}
	}
	return -1
}

// referenceInsert is insert with the cavity, the reach set and the
// internal faces held in maps.
func referenceInsert(tr *Triangulation, p int) error {
	start := referenceLocate(tr, p)
	if start < 0 {
		return errors.New("containing tetrahedron not found")
	}
	inCavity := map[int]bool{start: true}
	stack := []int{start}
	var cavity []int
	for len(stack) > 0 {
		ti := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cavity = append(cavity, ti)
		for f := 0; f < 4; f++ {
			nb := tr.tets[ti].adj[f]
			if nb < 0 || inCavity[nb] || !tr.tets[nb].alive {
				continue
			}
			if tr.inSphereP(&tr.tets[nb], p) {
				inCavity[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	var boundary []boundaryFace
	for repair := 0; ; repair++ {
		reach := map[int]bool{start: true}
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			ti := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for f := 0; f < 4; f++ {
				nb := tr.tets[ti].adj[f]
				if nb >= 0 && inCavity[nb] && !reach[nb] {
					reach[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if len(reach) != len(inCavity) {
			inCavity = reach
			cavity = sortutil.KeysInto(cavity, reach)
		}
		boundary = boundary[:0]
		evict := -1
		for _, ti := range cavity {
			for f := 0; f < 4; f++ {
				nb := tr.tets[ti].adj[f]
				if nb >= 0 && inCavity[nb] {
					continue
				}
				fc := tr.tets[ti].faceOf(f)
				if tr.orientP(fc[0], fc[1], fc[2], p) <= 0 && ti != start {
					evict = ti
					break
				}
				boundary = append(boundary, boundaryFace{fc, nb})
			}
			if evict >= 0 {
				break
			}
		}
		if evict < 0 {
			break
		}
		if repair > len(tr.tets) {
			return errors.New("cavity repair did not terminate")
		}
		delete(inCavity, evict)
		for k, ti := range cavity {
			if ti == evict {
				cavity = append(cavity[:k], cavity[k+1:]...)
				break
			}
		}
	}
	for _, bf := range boundary {
		if tr.orientP(bf.verts[0], bf.verts[1], bf.verts[2], p) <= 0 {
			return errors.New("cavity not star-shaped (degenerate input)")
		}
	}
	for _, ti := range cavity {
		tr.tets[ti].alive = false
		tr.free = append(tr.free, ti)
	}
	newTets := make([]int, 0, len(boundary))
	edgeMap := make(map[faceKey]int, 3*len(boundary))
	for _, bf := range boundary {
		v := [4]int{bf.verts[0], bf.verts[1], bf.verts[2], p}
		nt := tr.addTet(v)
		newTets = append(newTets, nt)
		tr.tets[nt].adj[3] = bf.ext
		if bf.ext >= 0 {
			k := sortedFace(bf.verts)
			for f := 0; f < 4; f++ {
				if sortedFace(tr.tets[bf.ext].faceOf(f)) == k {
					tr.tets[bf.ext].adj[f] = nt
					break
				}
			}
		}
		for f := 0; f < 3; f++ {
			k := sortedFace(tr.tets[nt].faceOf(f))
			if other, ok := edgeMap[k]; ok {
				for g := 0; g < 4; g++ {
					if sortedFace(tr.tets[other].faceOf(g)) == k {
						tr.tets[other].adj[g] = nt
						break
					}
				}
				tr.tets[nt].adj[f] = other
			} else {
				edgeMap[k] = nt
			}
		}
	}
	tr.lastHit = newTets[0]
	return nil
}

// sameTriangulation returns the first difference between two
// triangulations' slots (vertices, adjacency, liveness), free lists and
// walk starts, or nil.
func sameTriangulation(got, want *Triangulation) error {
	if len(got.tets) != len(want.tets) {
		return fmt.Errorf("%d tet slots, the reference has %d", len(got.tets), len(want.tets))
	}
	for i := range got.tets {
		if got.tets[i] != want.tets[i] {
			return fmt.Errorf("slot %d is %+v, the reference's is %+v", i, got.tets[i], want.tets[i])
		}
	}
	if len(got.free) != len(want.free) {
		return fmt.Errorf("%d free slots, the reference has %d", len(got.free), len(want.free))
	}
	for i := range got.free {
		if got.free[i] != want.free[i] {
			return fmt.Errorf("free slot %d is %d, the reference's is %d", i, got.free[i], want.free[i])
		}
	}
	if got.lastHit != want.lastHit {
		return fmt.Errorf("walk start %d, the reference's is %d", got.lastHit, want.lastHit)
	}
	return nil
}

// checkMatchesReference triangulates pts both ways: both must fail, or
// both succeed with the same slots.
func checkMatchesReference(pts []geom.Vec3) error {
	got, err := New(pts)
	want, refErr := referenceNew(pts)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("New: %v, reference: %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	return sameTriangulation(got, want)
}

// TestTriangulationMatchesReference pins the stamped insertion to the map
// version on random, structured, coplanar, collinear and coincident point
// sets, and on a structured set with repeated points.
func TestTriangulationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]geom.Vec3{
		"random 40":   randPoints(rng, 40),
		"random 400":  randPoints(rng, 400),
		"grid 5":      gridPoints(5),
		"grid 7":      gridPoints(7),
		"coincident":  {{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}},
		"collinear":   {{X: 0}, {X: 1}, {X: 2}, {X: 3}, {X: 4}},
		"grid repeat": append(gridPoints(3), gridPoints(3)...),
	}
	var plane []geom.Vec3
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			plane = append(plane, geom.Vec3{X: float64(i), Y: float64(j), Z: 0.5})
		}
	}
	cases["coplanar"] = plane
	for _, name := range sortutil.Keys(cases) {
		if err := checkMatchesReference(cases[name]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRepairMatchesReference drives the cavity repair, which consistent
// predicates never need: points already inserted are moved, so the
// triangulation the later insertions start from is no longer Delaunay for
// the predicates, and their cavities must shed tetrahedra the new point
// cannot see. Both insertions start from copies of one such state, and
// must fail together or agree slot for slot after every point.
func TestRepairMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, 60)
		tr := boxed(pts)
		for i := 0; i < 40; i++ {
			if err := tr.insert(i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			tr.ppts[i] = tr.ppts[i].Add(geom.Vec3{X: 0.05 * rng.NormFloat64(), Y: 0.05 * rng.NormFloat64(), Z: 0.05 * rng.NormFloat64()})
		}
		ref := *tr
		ref.tets = slices.Clone(tr.tets)
		ref.free = slices.Clone(tr.free)
		ref.ins = insertScratch{}
		for i := 40; i < 60; i++ {
			err, refErr := tr.insert(i), referenceInsert(&ref, i)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("seed %d point %d: insert %v, reference %v", seed, i, err, refErr)
			}
			if err != nil {
				break
			}
			if err := sameTriangulation(tr, &ref); err != nil {
				t.Fatalf("seed %d point %d: %v", seed, i, err)
			}
		}
	}
}

// FuzzTriangulationMatchesReference runs the comparison on point sets
// decoded from the fuzzer's bytes: three bytes a point, each coordinate
// one of 16 levels, so repeated, coplanar and cospherical points are
// common.
func FuzzTriangulationMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 15, 0, 0, 0, 15, 0, 0, 0, 15, 7, 7, 7})
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{0, 0, 8, 4, 0, 8, 8, 0, 8, 0, 4, 8, 4, 4, 8, 8, 4, 8, 0, 8, 8, 4, 8, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, b []byte) {
		var pts []geom.Vec3
		for i := 0; i+2 < len(b) && len(pts) < 300; i += 3 {
			pts = append(pts, geom.Vec3{
				X: float64(b[i] & 15),
				Y: float64(b[i+1] & 15),
				Z: math.Ldexp(float64(b[i+2]&15), -int(b[i+2]>>6)),
			})
		}
		if err := checkMatchesReference(pts); err != nil {
			t.Fatal(err)
		}
	})
}
