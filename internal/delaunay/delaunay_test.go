package delaunay

import (
	"math"
	"math/rand"
	"testing"

	"prometheus/internal/geom"
)

func randPoints(rng *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return pts
}

func gridPoints(n int) []geom.Vec3 {
	var pts []geom.Vec3
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			for k := 0; k <= n; k++ {
				pts = append(pts, geom.Vec3{
					X: float64(i) / float64(n),
					Y: float64(j) / float64(n),
					Z: float64(k) / float64(n),
				})
			}
		}
	}
	return pts
}

// checkDelaunay verifies the empty circumsphere property over all alive
// tets (against the perturbed points, which define the triangulation).
func checkDelaunay(t *testing.T, tr *Triangulation) {
	t.Helper()
	tets := tr.AllTets()
	for _, tet := range tets {
		a, b, c, d := tr.ppts[tet[0]], tr.ppts[tet[1]], tr.ppts[tet[2]], tr.ppts[tet[3]]
		if geom.TetVolume(a, b, c, d) <= 0 {
			t.Fatalf("non-positive tet %v", tet)
		}
		for p := 0; p < tr.NumUserPoints(); p++ {
			if p == tet[0] || p == tet[1] || p == tet[2] || p == tet[3] {
				continue
			}
			// Positive-volume tets flip Shewchuk's InSphere sign.
			if -geom.InSphere(a, b, c, d, tr.ppts[p]) > 0 {
				t.Fatalf("point %d inside circumsphere of tet %v", p, tet)
			}
		}
	}
}

func TestDelaunayRandomSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		pts := randPoints(rng, 30)
		tr, err := New(pts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkDelaunay(t, tr)
	}
}

func TestDelaunayStructuredGrid(t *testing.T) {
	// Structured grids are massively cospherical: the symbolic perturbation
	// must cope.
	pts := gridPoints(4)
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	checkDelaunay(t, tr)
	// Interior tets must cover the cube volume: total volume of non-box
	// tets ≈ 1 (the convex hull of the grid).
	vol := 0.0
	for _, tet := range tr.Tets() {
		vol += geom.TetVolume(tr.Point(tet[0]), tr.Point(tet[1]), tr.Point(tet[2]), tr.Point(tet[3]))
	}
	if math.Abs(vol-1) > 0.05 {
		t.Fatalf("hull volume = %v, want ≈ 1", vol)
	}
}

func TestDelaunayCoplanarPoints(t *testing.T) {
	// All points in the z=0.5 plane: the box corners supply the third
	// dimension; insertion must still succeed thanks to perturbation.
	var pts []geom.Vec3
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: 0.5})
		}
	}
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	checkDelaunay(t, tr)
}

func TestDelaunayFewPoints(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		pts := randPoints(rand.New(rand.NewSource(int64(n))), n)
		tr, err := New(pts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkDelaunay(t, tr)
	}
	if _, err := New(nil); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestInterpolatePartitionOfUnity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 60)
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for trial := 0; trial < 200; trial++ {
		// Query points inside the convex hull: random convex combinations.
		a := pts[rng.Intn(len(pts))]
		b := pts[rng.Intn(len(pts))]
		s := rng.Float64()
		q := a.Scale(s).Add(b.Scale(1 - s))
		verts, w, _, ok := tr.Interpolate(q, tr.Hint())
		if !ok {
			continue // may fall in a box-attached sliver near the hull
		}
		found++
		sum := 0.0
		rec := geom.Vec3{}
		for i := 0; i < 4; i++ {
			sum += w[i]
			rec = rec.Add(tr.Point(verts[i]).Scale(w[i]))
			if w[i] < -1e-6 {
				t.Fatalf("containing tet gave negative weight %v", w)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum to %v", sum)
		}
		if rec.Dist(q) > 1e-9 {
			t.Fatalf("reconstruction off by %v", rec.Dist(q))
		}
	}
	if found < 100 {
		t.Fatalf("only %d/200 interior queries located", found)
	}
}

func TestInterpolateAtVertices(t *testing.T) {
	pts := gridPoints(3)
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Interior grid vertices must be located with weight ≈ 1 on themselves.
	for i, p := range pts {
		if p.X == 0 || p.X == 1 || p.Y == 0 || p.Y == 1 || p.Z == 0 || p.Z == 1 {
			continue // hull vertices may land in box-attached tets
		}
		verts, w, _, ok := tr.Interpolate(p, tr.Hint())
		if !ok {
			t.Fatalf("vertex %d not located", i)
		}
		maxw, arg := -1.0, -1
		for k := 0; k < 4; k++ {
			if w[k] > maxw {
				maxw, arg = w[k], verts[k]
			}
		}
		if arg != i || maxw < 0.999 {
			t.Fatalf("vertex %d interpolates to %d with weight %v", i, arg, maxw)
		}
	}
}

func TestNearestFallback(t *testing.T) {
	pts := gridPoints(2)
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	// A point slightly outside the hull: Nearest must return a real tet
	// with weights summing to 1 (possibly slightly negative entries).
	q := geom.Vec3{X: 1.05, Y: 0.5, Z: 0.5}
	verts, w, ok := tr.Nearest(q)
	if !ok {
		t.Fatal("no nearest element")
	}
	sum := 0.0
	for i := 0; i < 4; i++ {
		sum += w[i]
		if tr.IsBoxVertex(verts[i]) {
			t.Fatal("Nearest returned a box vertex")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestTetsExcludeBox(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(5)), 25)
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tet := range tr.Tets() {
		for _, v := range tet {
			if tr.IsBoxVertex(v) {
				t.Fatal("Tets returned a box-attached tet")
			}
		}
	}
	if len(tr.AllTets()) <= len(tr.Tets()) {
		t.Fatal("box-attached tets should exist")
	}
}

func TestDelaunayLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 500)
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check Delaunay property on a sample (full check is O(n·t)).
	tets := tr.AllTets()
	for s := 0; s < 200; s++ {
		tet := tets[rng.Intn(len(tets))]
		a, b, c, d := tr.ppts[tet[0]], tr.ppts[tet[1]], tr.ppts[tet[2]], tr.ppts[tet[3]]
		p := rng.Intn(tr.NumUserPoints())
		if p == tet[0] || p == tet[1] || p == tet[2] || p == tet[3] {
			continue
		}
		if -geom.InSphere(a, b, c, d, tr.ppts[p]) > 0 {
			t.Fatalf("Delaunay violation at sample %d", s)
		}
	}
}

func TestDelaunayCoincidentPoints(t *testing.T) {
	// Many coincident points: the symbolic perturbation separates them;
	// construction must either succeed with valid tets or fail cleanly.
	pts := make([]geom.Vec3, 12)
	for i := range pts {
		pts[i] = geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	}
	tr, err := New(pts)
	if err != nil {
		t.Logf("coincident points rejected cleanly: %v", err)
		return
	}
	for _, tet := range tr.AllTets() {
		if geom.TetVolume(tr.ppts[tet[0]], tr.ppts[tet[1]], tr.ppts[tet[2]], tr.ppts[tet[3]]) <= 0 {
			t.Fatal("invalid tet from coincident input")
		}
	}
}

func TestDelaunayCollinearPoints(t *testing.T) {
	var pts []geom.Vec3
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Vec3{X: float64(i), Y: 2 * float64(i), Z: -float64(i)})
	}
	tr, err := New(pts)
	if err != nil {
		t.Logf("collinear points rejected cleanly: %v", err)
		return
	}
	checkDelaunay(t, tr)
}

func TestNearestOnDegenerateTriangulation(t *testing.T) {
	// A triangulation whose non-box tets are all slivers: Nearest must not
	// return box vertices and must report ok=false when nothing usable
	// exists.
	pts := []geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}}
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ok := tr.Nearest(geom.Vec3{X: 0.5, Y: 0.1, Z: 0})
	// Two points cannot form a non-box tetrahedron.
	if ok {
		t.Fatal("Nearest fabricated an element from two points")
	}
	if got := len(tr.Tets()); got != 0 {
		t.Fatalf("expected no interior tets, got %d", got)
	}
}

func TestInterpolateOutsideDomain(t *testing.T) {
	pts := gridPoints(2)
	tr, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Far outside the bounding box: the walk exits; ok must be false.
	if _, _, _, ok := tr.Interpolate(geom.Vec3{X: 100, Y: 100, Z: 100}, tr.Hint()); ok {
		t.Fatal("interpolated a point outside the box")
	}
}
