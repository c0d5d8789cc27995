package meshio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/mesh"
)

func TestRoundTripHex(t *testing.T) {
	m := mesh.StructuredHex(3, 2, 2, 1, 1, 1, func(c geom.Vec3) int {
		if c.X < 0.5 {
			return 0
		}
		return 1
	})
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || !reflect.DeepEqual(got.Coords, m.Coords) ||
		!reflect.DeepEqual(got.Elems, m.Elems) || !reflect.DeepEqual(got.Mat, m.Mat) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripTet(t *testing.T) {
	m := &mesh.Mesh{
		Type:   mesh.Tet4,
		Coords: []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}, {X: 1, Y: 1, Z: 1}},
		Elems:  [][]int{{0, 1, 2, 3}, {1, 2, 3, 4}},
		Mat:    []int{0, 3},
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
mesh tet4 4 1

v 0 0 0
v 1 0 0
# interior comment
v 0 1 0
v 0 0 1
e 2 0 1 2 3
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVerts() != 4 || m.NumElems() != 1 || m.Mat[0] != 2 {
		t.Fatalf("parsed %d verts %d elems", m.NumVerts(), m.NumElems())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"mash hex8 1 1",
		"mesh hex9 1 1",
		"mesh hex8 x 1",
		"mesh tet4 1 0\nv 1 2",                // bad vertex record
		"mesh tet4 1 1\nv 0 0 0\ne 0 0",       // bad element record
		"mesh tet4 2 0\nv 0 0 0",              // missing records
		"mesh tet4 1 1\nv 0 0 0\ne 0 0 0 0 9", // vertex id out of range
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestWriteVTK(t *testing.T) {
	m := mesh.StructuredHex(2, 1, 1, 2, 1, 1, func(c geom.Vec3) int {
		if c.X < 1 {
			return 0
		}
		return 1
	})
	rank := make([]float64, m.NumVerts())
	for i := range rank {
		rank[i] = float64(i % 4)
	}
	var buf bytes.Buffer
	if err := WriteVTK(&buf, m, map[string][]float64{"rank": rank}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"DATASET UNSTRUCTURED_GRID",
		"POINTS 12 double",
		"CELLS 2 18",
		"CELL_TYPES 2",
		"SCALARS material int 1",
		"POINT_DATA 12",
		"SCALARS rank double 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VTK output missing %q", want)
		}
	}
	// Tet and Hex20 cell codes.
	tm := mesh.HexToTets(mesh.StructuredHex(1, 1, 1, 1, 1, 1, nil))
	buf.Reset()
	if err := WriteVTK(&buf, tm, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n10\n") {
		t.Fatal("tet cell type missing")
	}
	qm := mesh.StructuredHex20(1, 1, 1, 1, 1, 1, nil)
	buf.Reset()
	if err := WriteVTK(&buf, qm, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n25\n") {
		t.Fatal("quadratic hex cell type missing")
	}
	// Bad point field length.
	if err := WriteVTK(&buf, m, map[string][]float64{"bad": {1}}); err == nil {
		t.Fatal("expected length error")
	}
}
