// Package fem provides the finite element machinery standing in for the
// paper's FEAP layer: Hex8/Tet4 shape functions, Gauss quadrature, B-bar
// (mean dilatation) strain-displacement matrices for near-incompressible
// materials, tangent/residual assembly over a mesh with per-element
// materials and per-integration-point state, and Dirichlet constraint
// reduction.
package fem

import (
	"prometheus/internal/geom"
	"prometheus/internal/mesh"
)

// GaussPoint is one quadrature point in the reference element.
type GaussPoint struct {
	Xi geom.Vec3
	W  float64
}

// HexGauss2 is the 2×2×2 Gauss rule for Hex8 elements.
var HexGauss2 = func() []GaussPoint {
	g := 1.0 / 1.7320508075688772
	var pts []GaussPoint
	for _, x := range []float64{-g, g} {
		for _, y := range []float64{-g, g} {
			for _, z := range []float64{-g, g} {
				pts = append(pts, GaussPoint{Xi: geom.Vec3{X: x, Y: y, Z: z}, W: 1})
			}
		}
	}
	return pts
}()

// TetGauss1 is the single-point rule for Tet4 elements (exact for linears).
var TetGauss1 = []GaussPoint{{Xi: geom.Vec3{X: 0.25, Y: 0.25, Z: 0.25}, W: 1.0 / 6.0}}

// hexNodes are the reference coordinates of the Hex8 nodes, matching the
// mesh package's connectivity order.
var hexNodes = [8]geom.Vec3{
	{X: -1, Y: -1, Z: -1}, {X: 1, Y: -1, Z: -1}, {X: 1, Y: 1, Z: -1}, {X: -1, Y: 1, Z: -1},
	{X: -1, Y: -1, Z: 1}, {X: 1, Y: -1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: -1, Y: 1, Z: 1},
}

// HexShape evaluates the Hex8 trilinear shape functions and their
// reference-coordinate gradients at xi.
func HexShape(xi geom.Vec3) (n [8]float64, dn [8]geom.Vec3) {
	for a := 0; a < 8; a++ {
		r := hexNodes[a]
		fx := 1 + r.X*xi.X
		fy := 1 + r.Y*xi.Y
		fz := 1 + r.Z*xi.Z
		n[a] = 0.125 * fx * fy * fz
		dn[a] = geom.Vec3{
			X: 0.125 * r.X * fy * fz,
			Y: 0.125 * fx * r.Y * fz,
			Z: 0.125 * fx * fy * r.Z,
		}
	}
	return
}

// TetShape evaluates the Tet4 linear shape functions and gradients at the
// reference point (barycentric-style: N0 = 1-x-y-z, N1 = x, N2 = y, N3 = z).
func TetShape(xi geom.Vec3) (n [4]float64, dn [4]geom.Vec3) {
	n[0] = 1 - xi.X - xi.Y - xi.Z
	n[1] = xi.X
	n[2] = xi.Y
	n[3] = xi.Z
	dn[0] = geom.Vec3{X: -1, Y: -1, Z: -1}
	dn[1] = geom.Vec3{X: 1}
	dn[2] = geom.Vec3{Y: 1}
	dn[3] = geom.Vec3{Z: 1}
	return
}

// jacobian computes the 3×3 Jacobian dx/dxi from nodal coordinates and
// reference gradients, returning its determinant and writing the physical
// gradients dN/dx (via J^{-T} dN/dxi) into dndx. A singular Jacobian
// returns 0 and leaves dndx as it was.
func jacobian(coords, dn, dndx []geom.Vec3) (detJ float64) {
	var j [3][3]float64
	for a := range coords {
		c := coords[a]
		g := dn[a]
		j[0][0] += c.X * g.X
		j[0][1] += c.X * g.Y
		j[0][2] += c.X * g.Z
		j[1][0] += c.Y * g.X
		j[1][1] += c.Y * g.Y
		j[1][2] += c.Y * g.Z
		j[2][0] += c.Z * g.X
		j[2][1] += c.Z * g.Y
		j[2][2] += c.Z * g.Z
	}
	detJ = j[0][0]*(j[1][1]*j[2][2]-j[1][2]*j[2][1]) -
		j[0][1]*(j[1][0]*j[2][2]-j[1][2]*j[2][0]) +
		j[0][2]*(j[1][0]*j[2][1]-j[1][1]*j[2][0])
	if detJ == 0 {
		return 0
	}
	inv := 1 / detJ
	var ji [3][3]float64 // inverse of J
	ji[0][0] = (j[1][1]*j[2][2] - j[1][2]*j[2][1]) * inv
	ji[0][1] = (j[0][2]*j[2][1] - j[0][1]*j[2][2]) * inv
	ji[0][2] = (j[0][1]*j[1][2] - j[0][2]*j[1][1]) * inv
	ji[1][0] = (j[1][2]*j[2][0] - j[1][0]*j[2][2]) * inv
	ji[1][1] = (j[0][0]*j[2][2] - j[0][2]*j[2][0]) * inv
	ji[1][2] = (j[0][2]*j[1][0] - j[0][0]*j[1][2]) * inv
	ji[2][0] = (j[1][0]*j[2][1] - j[1][1]*j[2][0]) * inv
	ji[2][1] = (j[0][1]*j[2][0] - j[0][0]*j[2][1]) * inv
	ji[2][2] = (j[0][0]*j[1][1] - j[0][1]*j[1][0]) * inv
	// dN/dx = J^{-T} dN/dxi.
	for a := range dn {
		g := dn[a]
		dndx[a] = geom.Vec3{
			X: ji[0][0]*g.X + ji[1][0]*g.Y + ji[2][0]*g.Z,
			Y: ji[0][1]*g.X + ji[1][1]*g.Y + ji[2][1]*g.Z,
			Z: ji[0][2]*g.X + ji[1][2]*g.Y + ji[2][2]*g.Z,
		}
	}
	return detJ
}

// HexGauss3 is the 3×3×3 Gauss rule used for Hex20 elements.
var HexGauss3 = func() []GaussPoint {
	const g = 0.7745966692414834 // sqrt(3/5)
	abscissae := []float64{-g, 0, g}
	weights := []float64{5.0 / 9, 8.0 / 9, 5.0 / 9}
	var pts []GaussPoint
	for i, x := range abscissae {
		for j, y := range abscissae {
			for k, z := range abscissae {
				pts = append(pts, GaussPoint{
					Xi: geom.Vec3{X: x, Y: y, Z: z},
					W:  weights[i] * weights[j] * weights[k],
				})
			}
		}
	}
	return pts
}()

// hex20Mid gives, for each midside node 8..19, the corner pair it bisects
// (matching the mesh package's Hex20 convention).
var hex20Mid = [12][2]int{
	{0, 1}, {1, 2}, {2, 3}, {3, 0},
	{4, 5}, {5, 6}, {6, 7}, {7, 4},
	{0, 4}, {1, 5}, {2, 6}, {3, 7},
}

// Hex20Shape evaluates the 20-node serendipity shape functions and their
// reference gradients at xi.
func Hex20Shape(xi geom.Vec3) (n [20]float64, dn [20]geom.Vec3) {
	// Corner nodes: N = 1/8 (1+ξξi)(1+ηηi)(1+ζζi)(ξξi+ηηi+ζζi-2).
	for a := 0; a < 8; a++ {
		r := hexNodes[a]
		fx := 1 + r.X*xi.X
		fy := 1 + r.Y*xi.Y
		fz := 1 + r.Z*xi.Z
		s := r.X*xi.X + r.Y*xi.Y + r.Z*xi.Z - 2
		n[a] = 0.125 * fx * fy * fz * s
		dn[a] = geom.Vec3{
			X: 0.125 * r.X * fy * fz * (s + fx),
			Y: 0.125 * r.Y * fx * fz * (s + fy),
			Z: 0.125 * r.Z * fx * fy * (s + fz),
		}
	}
	// Midside nodes: the zero reference coordinate gets the (1-q²) factor.
	for e, pair := range hex20Mid {
		a := 8 + e
		r := hexNodes[pair[0]].Add(hexNodes[pair[1]]).Scale(0.5) // one coord is 0
		switch {
		case r.X == 0:
			fy := 1 + r.Y*xi.Y
			fz := 1 + r.Z*xi.Z
			q := 1 - xi.X*xi.X
			n[a] = 0.25 * q * fy * fz
			dn[a] = geom.Vec3{
				X: -0.5 * xi.X * fy * fz,
				Y: 0.25 * q * r.Y * fz,
				Z: 0.25 * q * fy * r.Z,
			}
		case r.Y == 0:
			fx := 1 + r.X*xi.X
			fz := 1 + r.Z*xi.Z
			q := 1 - xi.Y*xi.Y
			n[a] = 0.25 * q * fx * fz
			dn[a] = geom.Vec3{
				X: 0.25 * q * r.X * fz,
				Y: -0.5 * xi.Y * fx * fz,
				Z: 0.25 * q * fx * r.Z,
			}
		default: // r.Z == 0
			fx := 1 + r.X*xi.X
			fy := 1 + r.Y*xi.Y
			q := 1 - xi.Z*xi.Z
			n[a] = 0.25 * q * fx * fy
			dn[a] = geom.Vec3{
				X: 0.25 * q * r.X * fy,
				Y: 0.25 * q * fx * r.Y,
				Z: -0.5 * xi.Z * fx * fy,
			}
		}
	}
	return
}

// Reference shape gradients at the Gauss points of each element type's
// rule, tabulated once: they depend on the reference element only.
var (
	hexGrads2 = tabulate(HexGauss2, func(xi geom.Vec3) []geom.Vec3 {
		_, dn := HexShape(xi)
		return dn[:]
	})
	tetGrads1 = tabulate(TetGauss1, func(xi geom.Vec3) []geom.Vec3 {
		_, dn := TetShape(xi)
		return dn[:]
	})
	hex20Grads3 = tabulate(HexGauss3, func(xi geom.Vec3) []geom.Vec3 {
		_, dn := Hex20Shape(xi)
		return dn[:]
	})
)

func tabulate(gps []GaussPoint, grads func(geom.Vec3) []geom.Vec3) [][]geom.Vec3 {
	out := make([][]geom.Vec3, len(gps))
	for g, gp := range gps {
		out[g] = grads(gp.Xi)
	}
	return out
}

// quadrature returns the Gauss rule of an element type and the reference
// shape gradients dN/dxi at its points, indexed [gauss point][node].
func quadrature(t mesh.ElemType) ([]GaussPoint, [][]geom.Vec3) {
	switch t {
	case mesh.Tet4:
		return TetGauss1, tetGrads1
	case mesh.Hex20:
		return HexGauss3, hex20Grads3
	default:
		return HexGauss2, hexGrads2
	}
}
