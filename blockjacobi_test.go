package prometheus

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"prometheus/internal/graph"
	"prometheus/internal/krylov"
	"prometheus/internal/la"
	"prometheus/internal/multigrid"
	"prometheus/internal/problems"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

// The two library systems of BENCHMARK.json: the spheres model problem
// (component-wise constraints, so a scalar CSR fine level) and the
// clamped cube (node-aligned constraints, so 3x3 BSR), at the benchmark's
// sizes (20.6k and 46.9k dofs) when full is set and the same two shapes a
// size down otherwise.
type reducedSystem struct {
	solver *Solver
	kred   *CSR // reduced tangent
}

func spheresSystem(t testing.TB, full bool, mgOpts multigrid.Options) reducedSystem {
	t.Helper()
	cfg := problems.SpheresConfig{Layers: 3, ElemsPerLayer: 1, CoreElems: 2, OuterElems: 2}
	if full {
		cfg = problems.SpheresConfig{Layers: 5, ElemsPerLayer: 2, CoreElems: 4, OuterElems: 4}
	}
	s := problems.NewSpheresConfig(cfg)
	u0 := make([]float64, s.Mesh.NumDOF())
	s.Cons.Scaled(0.1).Apply(u0)
	return reduce(t, s.Mesh, s.Cons, NewProblem(s.Mesh, s.Models, true), u0, mgOpts)
}

func cubeSystem(t testing.TB, full bool, mgOpts multigrid.Options) reducedSystem {
	t.Helper()
	n := 8
	if full {
		n = 24
	}
	c := problems.NewCube(n, LinearElastic{E: 1, Nu: 0.3}, -0.001)
	return reduce(t, c.Mesh, c.Cons, NewProblem(c.Mesh, c.Models, false), make([]float64, c.Mesh.NumDOF()), mgOpts)
}

func reduce(t testing.TB, m *Mesh, cons *Constraints, p *Problem, u0 []float64, mgOpts multigrid.Options) reducedSystem {
	t.Helper()
	solver, err := NewSolver(m, cons, Options{MG: mgOpts})
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := p.AssembleTangent(u0)
	if err != nil {
		t.Fatal(err)
	}
	kred, _ := solver.ReduceSystem(k, make([]float64, m.NumDOF()))
	return reducedSystem{solver, kred}
}

// saSystem is sys under the smoothed-aggregation hierarchy.
func saSystem(t testing.TB, sys reducedSystem) reducedSystem {
	t.Helper()
	solver, err := NewSolver(sys.solver.Mesh, sys.solver.cons, Options{Hierarchy: SmoothedAggregation})
	if err != nil {
		t.Fatal(err)
	}
	return reducedSystem{solver, sys.kred}
}

func (s reducedSystem) hierarchy(t testing.TB) *multigrid.MG {
	t.Helper()
	mg, err := s.solver.Preconditioner(s.kred)
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

// edgeListGraph is the construction the pattern graph replaced: the
// strict-upper-triangle edge list of the matrix through NewGraph.
func edgeListGraph(a *sparse.CSR) *graph.Graph {
	var edges [][2]int
	for i := 0; i < a.NRows; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if i < j {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graph.NewGraph(a.NRows, edges)
}

// unitView returns the pattern the smoother of a level stored as op is
// partitioned on, as a CSR, and the dofs of each of its rows: a BSR's
// block pattern (rows are nodes, values zero), a CSR itself (rows are
// dofs).
func unitView(op sparse.Operator) (*CSR, int) {
	if b, ok := op.(*sparse.BSR); ok {
		return &CSR{NRows: b.NBRows, NCols: b.NBCols, RowPtr: b.RowPtr, ColIdx: b.ColIdx, Val: make([]float64, len(b.ColIdx))}, b.B
	}
	return op.(*CSR), 1
}

// TestSmootherPartitionMatchesEdgeListGraph proves the smoother's unit
// graph is the one the edge-list path produced: on every level operator of
// both benchmark hierarchies (a size down under -short) the graph of the
// pattern the level's smoother is partitioned on — the block pattern of a
// BSR level, whose vertices are nodes, the pattern of a CSR level — equals
// the edge-list graph array for array, and the partitioner returns the
// same part of every vertex.
func TestSmootherPartitionMatchesEdgeListGraph(t *testing.T) {
	full := !testing.Short()
	for _, tc := range []struct {
		name string
		mg   *multigrid.MG
		fine string
	}{
		{"spheres", spheresSystem(t, full, multigrid.Options{}).hierarchy(t), "*sparse.CSR"},
		{"cube", cubeSystem(t, full, multigrid.Options{}).hierarchy(t), "*sparse.BSR"},
	} {
		if got := fmt.Sprintf("%T", tc.mg.Levels[0].A); got != tc.fine {
			t.Fatalf("%s: fine level is %s, want %s", tc.name, got, tc.fine)
		}
		for li, lvl := range tc.mg.Levels {
			view, _ := unitView(lvl.A)
			want := edgeListGraph(view)
			got := graph.NewFromPattern(view.NRows, view.RowPtr, view.ColIdx)
			if got.N != want.N || !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Adj, want.Adj) {
				t.Fatalf("%s level %d (%d units): pattern graph differs from the edge-list graph", tc.name, li, view.NRows)
			}
			nb := smooth.DefaultBlockCount(lvl.A.Rows())
			if !slices.Equal(graph.GreedyPartition(got, nb), graph.GreedyPartition(want, nb)) {
				t.Fatalf("%s level %d: partitions differ", tc.name, li)
			}
		}
	}
}

// TestPartitionOnPatternIsGraphPartition proves that the smoother of every
// smoothed level of the cube's geometric and smoothed-aggregation
// hierarchies (each fine level blocked from the reduced CSR with no fill)
// is partitioned on the graph of the level's units: the nodes of a
// blocked level, the dofs of a scalar one. Partitioning the unit pattern
// as it stands — each row's columns, the row itself among them — gives
// the parts partitioning NewFromPattern's graph of it gives, and the
// smoother's blocks are those parts, each unit expanded to its dofs.
// internal/multigrid's TestReferencePartitionIsGraphPartition covers the
// spheres' scalar fine level and pinned Galerkin levels on the
// scalar-kernel reference.
func TestPartitionOnPatternIsGraphPartition(t *testing.T) {
	cube := cubeSystem(t, false, multigrid.Options{})
	nodeLevels := 0
	for _, tc := range []struct {
		name string
		sys  reducedSystem
	}{
		{"cube", cube},
		{"aggregation", saSystem(t, cube)},
	} {
		mg := tc.sys.hierarchy(t)
		for li, lvl := range mg.Levels {
			if lvl.Smoother == nil {
				continue
			}
			u, dofs := unitView(lvl.A)
			n, ptr, adj := u.NRows, u.RowPtr, u.ColIdx
			if dofs > 1 {
				nodeLevels++
			}
			nb := smooth.DefaultBlockCount(lvl.A.Rows())
			want := graph.GreedyPartition(graph.NewFromPattern(n, ptr, adj), nb)
			if got := graph.GreedyPartition(&graph.Graph{N: n, Ptr: ptr, Adj: adj}, nb); !slices.Equal(got, want) {
				t.Fatalf("%s level %d: the partition of the unit pattern differs from the partition of its graph", tc.name, li)
			}
			blocks := lvl.Smoother.Inner.Blocks()
			for bi, units := range graph.PartMembers(want, nb) {
				var expanded []int
				for _, u := range units {
					for c := 0; c < dofs; c++ {
						expanded = append(expanded, dofs*u+c)
					}
				}
				held := slices.Clone(blocks[bi])
				slices.Sort(held)
				if !slices.Equal(held, expanded) {
					t.Fatalf("%s level %d block %d: the smoother holds other dofs than the unit partition's", tc.name, li, bi)
				}
			}
		}
	}
	if nodeLevels == 0 {
		t.Fatal("no blocked level was partitioned")
	}
}

// envelopeOf returns the envelope the smoother plans for block dofs of a
// matrix with pattern e, pos[d] being d's position in its own block: row p
// starts at its first stored in-block column, rounded down to a multiple
// of 4.
func envelopeOf(e *sparse.CSR, dofs, pos []int) []int {
	first := make([]int, len(dofs))
	for p, i := range dofs {
		first[p] = p
		for _, j := range e.ColIdx[e.RowPtr[i]:e.RowPtr[i+1]] {
			if q := pos[j]; q < first[p] && dofs[q] == j {
				first[p] = q
			}
		}
		first[p] &^= 3
	}
	return la.EnvelopeOffsets(first)
}

// TestUnitEnvelopesAreScalarScan pins the envelopes smooth.PlanBlocks lays
// out from a level's unit graph to the scan of the level's scalar pattern
// (envelopeOf), row for row in every block of every level, the coarsest
// one-block factor included: on the geometric cube (BSR fine level),
// spheres (CSR fine level, BSR Galerkin levels) and cantilever
// hierarchies and on smoothed aggregation over the spheres and the cube.
func TestUnitEnvelopesAreScalarScan(t *testing.T) {
	spheres, cube := spheresSystem(t, false, multigrid.Options{}), cubeSystem(t, false, multigrid.Options{})
	beam := problems.NewCantilever(12, 2, 2, 6, LinearElastic{E: 1, Nu: 0.3}, -0.0001)
	cantilever := reduce(t, beam.Mesh, beam.Cons, NewProblem(beam.Mesh, beam.Models, false), make([]float64, beam.Mesh.NumDOF()), multigrid.Options{})
	seen := map[string]bool{}
	for _, tc := range []struct {
		name string
		sys  reducedSystem
	}{
		{"cube", cube},
		{"spheres", spheres},
		{"cantilever", cantilever},
		{"aggregation on the spheres", saSystem(t, spheres)},
		{"aggregation on the cube", saSystem(t, cube)},
	} {
		for li, lvl := range tc.sys.hierarchy(t).Levels {
			seen[fmt.Sprintf("%T", lvl.A)] = true
			bj := lvl.Direct
			if lvl.Smoother != nil {
				bj = lvl.Smoother.Inner
			}
			e := sparse.AsCSR(lvl.A)
			pos := make([]int, e.NRows)
			for _, dofs := range bj.Blocks() {
				for k, d := range dofs {
					pos[d] = k
				}
			}
			stored := 0
			for bi, dofs := range bj.Blocks() {
				off := envelopeOf(e, dofs, pos)
				stored += off[len(dofs)]
				l := bj.BlockFactor(bi)
				for p := range dofs {
					f, _ := l.Row(p)
					if want := p + 1 - (off[p+1] - off[p]); f != want {
						t.Fatalf("%s level %d (%T) block %d row %d: envelope from column %d, the scalar scan %d", tc.name, li, lvl.A, bi, p, f, want)
					}
				}
			}
			if bj.FactorLen() != stored {
				t.Fatalf("%s level %d: the factors store %d values, the scalar scan's envelopes %d", tc.name, li, bj.FactorLen(), stored)
			}
		}
	}
	for _, st := range []string{"*sparse.CSR", "*sparse.BSR"} {
		if !seen[st] {
			t.Errorf("no %s level was exercised", st)
		}
	}
}

// TestBlockGatherMatchesAt checks the envelope block gather entry by entry
// against the level operator's own At on both assembled storages, reading
// each level's own storage (BSR levels through their blocks): the first
// and last smoother block of every level through one position array for
// the whole partition (the form concurrent block setup shares), then the
// first block again in reversed dof order, which moves every envelope.
// Every envelope slot must be overwritten, nothing outside the envelope
// written, and every entry left of a row's envelope must be zero.
func TestBlockGatherMatchesAt(t *testing.T) {
	type gatherer interface {
		GatherLowerEnvelope(idx, pos, off []int, l []float64)
		At(i, j int) float64
	}
	const guard = 8 // sentinel slots on either side of the envelope
	seen := map[string]bool{}
	for _, mg := range []*multigrid.MG{spheresSystem(t, false, multigrid.Options{}).hierarchy(t), cubeSystem(t, false, multigrid.Options{}).hierarchy(t)} {
		for li, lvl := range mg.Levels {
			seen[fmt.Sprintf("%T", lvl.A)] = true
			at := lvl.A.(gatherer)
			e := sparse.AsCSR(lvl.A)
			nb := smooth.DefaultBlockCount(e.NRows)
			g := graph.NewFromPattern(e.NRows, e.RowPtr, e.ColIdx)
			blocks := graph.PartMembers(graph.GreedyPartition(g, nb), nb)
			// pos[d] is d's position inside its own block, as the
			// smoother's setup builds it: every other block's entries
			// are the garbage the gather must see through.
			pos := make([]int, e.NRows)
			for _, dofs := range blocks {
				for k, d := range dofs {
					pos[d] = k
				}
			}
			first := blocks[0]
			reversed := make([]int, len(first))
			revPos := slices.Clone(pos)
			for k, d := range first {
				reversed[len(first)-1-k] = d
				revPos[d] = len(first) - 1 - k
			}
			for _, c := range []struct{ dofs, pos []int }{{first, pos}, {blocks[nb-1], pos}, {reversed, revPos}} {
				dofs := c.dofs
				off := envelopeOf(e, dofs, c.pos)
				buf := make([]float64, guard+off[len(dofs)]+guard)
				for i := range buf {
					buf[i] = -7 // the gather must overwrite every envelope slot
				}
				l := buf[guard : guard+off[len(dofs)]]
				before := slices.Clone(c.pos)
				at.GatherLowerEnvelope(dofs, c.pos, off, l)
				for p, i := range dofs {
					row := l[off[p]:off[p+1]]
					f := p + 1 - len(row)
					for q, j := range dofs[:p+1] {
						want := at.At(i, j)
						if q < f {
							if want != 0 {
								t.Fatalf("level %d (%T): A(%d,%d) = %v lies left of row %d's envelope at %d", li, lvl.A, i, j, want, p, f)
							}
						} else if got := row[q-f]; got != want {
							t.Fatalf("level %d (%T): gathered (%d,%d) = %v, At(%d,%d) = %v", li, lvl.A, p, q, got, i, j, want)
						}
					}
				}
				for _, v := range append(slices.Clone(buf[:guard]), buf[guard+len(l):]...) {
					if v != -7 {
						t.Fatalf("level %d (%T): the gather wrote outside the envelope", li, lvl.A)
					}
				}
				if !slices.Equal(before, c.pos) {
					t.Fatalf("level %d: the gather wrote its position array", li)
				}
			}
		}
	}
	for _, st := range []string{"*sparse.CSR", "*sparse.BSR"} {
		if !seen[st] {
			t.Errorf("no %s level was exercised", st)
		}
	}
}

// unitParts returns the units of a smoother's blocks of dofs, b dofs a
// unit: each block's every b-th dof, over b.
func unitParts(blocks [][]int, b int) [][]int {
	parts := make([][]int, len(blocks))
	for bi, dofs := range blocks {
		for k := 0; k < len(dofs); k += b {
			parts[bi] = append(parts[bi], dofs[k]/b)
		}
	}
	return parts
}

// fullUnitGraph returns the graph over n units that joins every unit to
// every unit of its own part, itself included: the graph whose envelopes
// are the full triangles.
func fullUnitGraph(n int, parts [][]int) *graph.Graph {
	ptr := make([]int, n+1)
	for _, units := range parts {
		for _, u := range units {
			ptr[u+1] = len(units)
		}
	}
	for u := 0; u < n; u++ {
		ptr[u+1] += ptr[u]
	}
	adj := make([]int, ptr[n])
	for _, units := range parts {
		sorted := slices.Clone(units)
		slices.Sort(sorted)
		for _, u := range units {
			copy(adj[ptr[u]:], sorted)
		}
	}
	return &graph.Graph{N: n, Ptr: ptr, Adj: adj}
}

// TestEnvelopeSmootherIsDenseSmoother pins the envelope block factors to
// full triangles through the one planning path: on every smoothed level of
// the spheres and cube hierarchies (CSR and BSR levels), the hierarchy's
// smoother — planned from the level's unit graph — against one planned
// from a unit graph that joins every unit of a block, over the same blocks
// and the same level operator. The factors must agree bit for bit inside the
// envelope and the full triangle must hold +0 outside it; then FPCG
// preconditioned by the hierarchy must give the same solution bits,
// iterations and residual history with either set of smoothers.
func TestEnvelopeSmootherIsDenseSmoother(t *testing.T) {
	seen := map[string]bool{}
	for _, sys := range []reducedSystem{spheresSystem(t, false, multigrid.Options{}), cubeSystem(t, false, multigrid.Options{})} {
		envMG, denseMG := sys.hierarchy(t), sys.hierarchy(t)
		for li, lvl := range denseMG.Levels {
			if lvl.Smoother == nil {
				continue
			}
			seen[fmt.Sprintf("%T", lvl.A)] = true
			env := envMG.Levels[li].Smoother.Inner
			blocks := env.Blocks()
			u, b := unitView(lvl.A)
			parts := unitParts(blocks, b)
			dense, err := smooth.PlanBlocks(fullUnitGraph(u.NRows, parts), b, parts).Factor(lvl.A)
			if err != nil {
				t.Fatal(err)
			}
			full := 0
			for _, dofs := range blocks {
				full += len(dofs) * (len(dofs) + 1) / 2
			}
			if dense.FactorLen() != full || li == 0 && env.FactorLen() >= full {
				t.Fatalf("level %d (%T): envelope factors hold %d values, full ones %d of %d", li, lvl.A, env.FactorLen(), dense.FactorLen(), full)
			}
			t.Logf("level %d (%T, %d dofs): %d of %d factor entries stored", li, lvl.A, lvl.A.Rows(), env.FactorLen(), full)
			for bi := range blocks {
				ef, df := env.BlockFactor(bi), dense.BlockFactor(bi)
				for p := 0; p < ef.N; p++ {
					f, er := ef.Row(p)
					_, dr := df.Row(p)
					for q, v := range dr {
						if q < f && math.Float64bits(v) != 0 || q >= f && math.Float64bits(v) != math.Float64bits(er[q-f]) {
							t.Fatalf("level %d block %d: L(%d,%d) = %v full, envelope from column %d", li, bi, p, q, v, f)
						}
					}
				}
			}
			lvl.Smoother = smooth.NewCGSmoother(lvl.A, dense)
		}
		n := sys.kred.NRows
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i) + 1)
		}
		xe, xd := make([]float64, n), make([]float64, n)
		re := krylov.FPCG(sys.kred, b, xe, envMG, 1e-8, 200)
		rd := krylov.FPCG(sys.kred, b, xd, denseMG, 1e-8, 200)
		if !re.Converged || re.Iterations != rd.Iterations || !slices.Equal(re.Residuals, rd.Residuals) {
			t.Fatalf("FPCG: envelope %d iterations (converged %v), full %d; residual histories equal: %v", re.Iterations, re.Converged, rd.Iterations, slices.Equal(re.Residuals, rd.Residuals))
		}
		for i := range xe {
			if math.Float64bits(xe[i]) != math.Float64bits(xd[i]) {
				t.Fatalf("FPCG solution differs at %d: envelope %v, full %v", i, xe[i], xd[i])
			}
		}
	}
	for _, st := range []string{"*sparse.CSR", "*sparse.BSR"} {
		if !seen[st] {
			t.Errorf("no smoothed %s level was exercised", st)
		}
	}
}

// domainBlockJacobi runs the three setup steps multigrid performs per
// level: graph from the pattern, partition, gather and factor.
func domainBlockJacobi(b *testing.B, a *sparse.CSR) *smooth.DomainBlockJacobi {
	nb := smooth.DefaultBlockCount(a.NRows)
	g := &graph.Graph{N: a.NRows, Ptr: a.RowPtr, Adj: a.ColIdx}
	bj, err := smooth.PlanBlocks(g, 1, graph.PartMembers(graph.GreedyPartition(g, nb), nb)).Factor(a)
	if err != nil {
		b.Fatal(err)
	}
	return bj
}

// BenchmarkBlockJacobiSetup measures the domain smoother's setup on the
// 20.6k-dof spheres fine operator: 114 blocks of ~167 dofs partitioned,
// planned, gathered and factored. -benchmem shows what it allocates: the
// envelope factors (8.0 MB) plus the graph and index arrays.
func BenchmarkBlockJacobiSetup(b *testing.B) {
	a := spheresSystem(b, true, multigrid.Options{}).kred
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		domainBlockJacobi(b, a)
	}
}

// BenchmarkBlockSolve measures one application of the factored blocks
// (forward and back substitution through every envelope factor) on the same
// operator; it must not allocate.
func BenchmarkBlockSolve(b *testing.B) {
	a := spheresSystem(b, true, multigrid.Options{}).kred
	bj := domainBlockJacobi(b, a)
	r := make([]float64, a.NRows)
	z := make([]float64, a.NRows)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bj.Solve(r, z)
	}
	b.ReportMetric(float64(bj.Flops())/b.Elapsed().Seconds()/1e6, "Mflop/s")
}
