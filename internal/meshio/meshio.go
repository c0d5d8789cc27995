// Package meshio reads and writes meshes in a simple "flat" text format
// modelled on the paper's Athena input path, whose "large 'flat' finite
// element mesh input file" each processor reads in part. Here one reader
// parses the whole file: no solve reads a mesh in parts, so the parallel
// access pattern is not reproduced.
//
// Format (whitespace separated, '#' comments):
//
//	mesh <hex8|tet4> <numVerts> <numElems>
//	v <x> <y> <z>            (numVerts lines)
//	e <mat> <v0> <v1> ...    (numElems lines, 8 or 4 vertex ids)
package meshio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"prometheus/internal/geom"
	"prometheus/internal/mesh"
)

// Write serializes the mesh.
func Write(w io.Writer, m *mesh.Mesh) error {
	bw := bufio.NewWriter(w)
	kind := "hex8"
	if m.Type == mesh.Tet4 {
		kind = "tet4"
	}
	fmt.Fprintf(bw, "mesh %s %d %d\n", kind, m.NumVerts(), m.NumElems())
	for _, p := range m.Coords {
		fmt.Fprintf(bw, "v %.17g %.17g %.17g\n", p.X, p.Y, p.Z)
	}
	for e, conn := range m.Elems {
		fmt.Fprintf(bw, "e %d", m.Mat[e])
		for _, v := range conn {
			fmt.Fprintf(bw, " %d", v)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// header holds the parsed first line.
type header struct {
	typ            mesh.ElemType
	nVerts, nElems int
}

func parseHeader(line string) (header, error) {
	f := strings.Fields(line)
	if len(f) != 4 || f[0] != "mesh" {
		return header{}, fmt.Errorf("meshio: bad header %q", line)
	}
	var h header
	switch f[1] {
	case "hex8":
		h.typ = mesh.Hex8
	case "tet4":
		h.typ = mesh.Tet4
	default:
		return header{}, fmt.Errorf("meshio: unknown element type %q", f[1])
	}
	var err error
	if h.nVerts, err = strconv.Atoi(f[2]); err != nil {
		return header{}, fmt.Errorf("meshio: bad vertex count: %w", err)
	}
	if h.nElems, err = strconv.Atoi(f[3]); err != nil {
		return header{}, fmt.Errorf("meshio: bad element count: %w", err)
	}
	if h.nVerts < 0 || h.nElems < 0 {
		return header{}, fmt.Errorf("meshio: negative counts in header")
	}
	return h, nil
}

// records splits the input into the header line and the data lines,
// skipping blanks and comments.
func records(data string) ([]string, error) {
	var lines []string
	for _, ln := range strings.Split(data, "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		lines = append(lines, ln)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("meshio: empty input")
	}
	return lines, nil
}

func parseVertex(ln string) (geom.Vec3, error) {
	f := strings.Fields(ln)
	if len(f) != 4 || f[0] != "v" {
		return geom.Vec3{}, fmt.Errorf("meshio: bad vertex record %q", ln)
	}
	var p geom.Vec3
	var err error
	if p.X, err = strconv.ParseFloat(f[1], 64); err != nil {
		return p, err
	}
	if p.Y, err = strconv.ParseFloat(f[2], 64); err != nil {
		return p, err
	}
	if p.Z, err = strconv.ParseFloat(f[3], 64); err != nil {
		return p, err
	}
	return p, nil
}

func parseElem(ln string, npe int) (int, []int, error) {
	f := strings.Fields(ln)
	if len(f) != npe+2 || f[0] != "e" {
		return 0, nil, fmt.Errorf("meshio: bad element record %q", ln)
	}
	mat, err := strconv.Atoi(f[1])
	if err != nil {
		return 0, nil, err
	}
	conn := make([]int, npe)
	for i := 0; i < npe; i++ {
		if conn[i], err = strconv.Atoi(f[2+i]); err != nil {
			return 0, nil, err
		}
	}
	return mat, conn, nil
}

// Read parses a mesh serially.
func Read(r io.Reader) (*mesh.Mesh, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines, err := records(string(data))
	if err != nil {
		return nil, err
	}
	h, err := parseHeader(lines[0])
	if err != nil {
		return nil, err
	}
	if len(lines) != 1+h.nVerts+h.nElems {
		return nil, fmt.Errorf("meshio: expected %d records, found %d", 1+h.nVerts+h.nElems, len(lines))
	}
	m := &mesh.Mesh{Type: h.typ}
	for i := 0; i < h.nVerts; i++ {
		p, err := parseVertex(lines[1+i])
		if err != nil {
			return nil, err
		}
		m.Coords = append(m.Coords, p)
	}
	npe := h.typ.NodesPerElem()
	for i := 0; i < h.nElems; i++ {
		mat, conn, err := parseElem(lines[1+h.nVerts+i], npe)
		if err != nil {
			return nil, err
		}
		m.Mat = append(m.Mat, mat)
		m.Elems = append(m.Elems, conn)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
