package problems

import (
	"math"
	"testing"

	"prometheus/internal/geom"
	"prometheus/internal/material"
)

func TestSphereMatLayers(t *testing.T) {
	paper := SpheresConfig{Layers: NumLayers}
	// Core and outside are soft.
	if paper.MatAt(geom.Vec3{X: 1}) != material.MatSoft {
		t.Fatal("core should be soft")
	}
	if paper.MatAt(geom.Vec3{X: 10}) != material.MatSoft {
		t.Fatal("outside should be soft")
	}
	// First layer (just above r=2.5) is hard; alternation holds.
	layerWidth := (SphereROut - SphereRIn) / NumLayers
	for l := 0; l < NumLayers; l++ {
		r := SphereRIn + (float64(l)+0.5)*layerWidth
		got := paper.MatAt(geom.Vec3{Z: r})
		want := material.MatSoft
		if l%2 == 0 {
			want = material.MatHard
		}
		if got != want {
			t.Fatalf("layer %d (r=%v): mat %d want %d", l, r, got, want)
		}
	}
}

// smallCfg is a reduced geometry for unit tests: 3 layers, 7³ elements.
var smallCfg = SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}

func TestNewSpheres(t *testing.T) {
	s := NewSpheresConfig(smallCfg)
	if err := s.Mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	n := smallCfg.NumRadial()
	if s.Mesh.NumElems() != n*n*n {
		t.Fatalf("elems = %d", s.Mesh.NumElems())
	}
	hf := s.HardFraction()
	if hf <= 0.02 || hf >= 0.6 {
		t.Fatalf("hard fraction = %v, implausible", hf)
	}
	// Constraints: top surface crush plus three symmetry planes.
	nTop := 0
	for v, p := range s.Mesh.Coords {
		if p.Z > OctantSide-1e-9 {
			if s.Cons.Fixed[3*v+2] != TotalCrushUz {
				t.Fatal("top surface not crushed")
			}
			nTop++
		}
		if p.X < 1e-9 {
			if _, ok := s.Cons.Fixed[3*v]; !ok {
				t.Fatal("x symmetry missing")
			}
		}
	}
	if nTop != (n+1)*(n+1) {
		t.Fatalf("top verts = %d, want %d", nTop, (n+1)*(n+1))
	}
	if s.Models[s.HardMat].Name() != "j2-plasticity" {
		t.Fatal("hard material must be plastic")
	}
}

func TestSpheresMeshPositiveJacobians(t *testing.T) {
	// The warped mesh must have strictly positive element volumes.
	s := NewSpheresConfig(smallCfg)
	min, _ := s.Mesh.Quality()
	if min <= 0 {
		t.Fatalf("warped mesh has non-positive quality proxy: %v", min)
	}
}

func TestSpheresShellsConnected(t *testing.T) {
	// Every hard layer must form a connected shell: the hard elements at
	// two opposite ends of the first shell must be joined through hard
	// elements. Cheap proxy: the count of hard elements in each layer band
	// matches a full shell of the structured grid (3 faces of a cube
	// shell, ElemsPerLayer thick: nonzero and large).
	s := NewSpheresConfig(smallCfg)
	layerWidth := (SphereROut - SphereRIn) / float64(smallCfg.Layers)
	counts := make([]int, smallCfg.Layers)
	for e, conn := range s.Mesh.Elems {
		c := geom.Vec3{}
		for _, v := range conn {
			c = c.Add(s.Mesh.Coords[v])
		}
		c = c.Scale(1.0 / 8)
		r := math.Sqrt(c.X*c.X + c.Y*c.Y + c.Z*c.Z)
		if r >= SphereRIn && r <= SphereROut {
			l := int((r - SphereRIn) / layerWidth)
			if l >= smallCfg.Layers {
				l = smallCfg.Layers - 1
			}
			if s.Mesh.Mat[e] == material.MatHard {
				counts[l]++
			}
		}
	}
	// Layers 0 and 2 are hard; layer 1 soft.
	if counts[0] == 0 || counts[2] == 0 {
		t.Fatalf("hard layers empty: %v", counts)
	}
	if counts[1] != 0 {
		t.Fatalf("soft layer contains hard elements: %v", counts)
	}
	// A complete cube shell at radial index i has 3i²+3i+1 elements; hard
	// shells must be at least a full shell's worth.
	if counts[0] < 19 {
		t.Fatalf("first hard shell looks disconnected: %d elements", counts[0])
	}
}

func TestSpheresDofScaling(t *testing.T) {
	// Dofs grow like (n+1)³ with the radial resolution.
	d1 := NewSpheresConfig(SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}).Mesh.NumDOF()
	d2 := NewSpheresConfig(SpheresConfig{Layers: 3, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4}).Mesh.NumDOF()
	ratio := float64(d2) / float64(d1)
	if math.Abs(ratio-8) > 3 {
		t.Fatalf("dof ratio = %v", ratio)
	}
}

func TestPaperBaseProblemSize(t *testing.T) {
	// The paper's base problem is ~80k dof; our k=1 17-layer octant must
	// land in the same decade.
	cfg := SpheresConfig{Layers: 17, ElemsPerLayer: 1, CoreElems: 3, OuterElems: 3}
	n := cfg.NumRadial()
	dof := 3 * (n + 1) * (n + 1) * (n + 1)
	if dof < 20000 || dof > 200000 {
		t.Fatalf("base problem dof = %d", dof)
	}
}

func TestNewCube(t *testing.T) {
	c := NewCube(3, material.LinearElastic{E: 1, Nu: 0.3}, -0.01)
	if err := c.Mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	loaded := 0
	for _, f := range c.Load {
		if f != 0 {
			loaded++
		}
	}
	if loaded != 16 {
		t.Fatalf("loaded dofs = %d, want 16 (4x4 top verts)", loaded)
	}
	if len(c.Cons.Fixed) != 3*16 {
		t.Fatalf("fixed dofs = %d", len(c.Cons.Fixed))
	}
}

func TestThinSlab(t *testing.T) {
	m := ThinSlab(6, 5, 0.3)
	if m.NumElems() != 30 {
		t.Fatalf("elems = %d", m.NumElems())
	}
	box := geom.NewAABB(m.Coords)
	if box.Max.Z != 0.3 {
		t.Fatalf("thickness = %v", box.Max.Z)
	}
}

func TestNewCantilever(t *testing.T) {
	c := NewCantilever(6, 1, 1, 6, material.LinearElastic{E: 1, Nu: 0.3}, -0.001)
	if err := c.Mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	// Clamped end: 4 verts × 3 dofs.
	if len(c.Cons.Fixed) != 12 {
		t.Fatalf("fixed dofs = %d", len(c.Cons.Fixed))
	}
}

func TestPaperSizes(t *testing.T) {
	dofs, procs := PaperSizes()
	if len(dofs) != len(procs) || len(dofs) != 8 {
		t.Fatal("Table 2 has 8 columns")
	}
	// ~40k dof per processor throughout.
	for i := range dofs {
		perProc := float64(dofs[i]) / float64(procs[i])
		if perProc < 25000 || perProc > 65000 {
			t.Fatalf("dof/proc = %v at column %d", perProc, i)
		}
	}
}
