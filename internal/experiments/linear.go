// Package experiments regenerates every table and figure of the paper's
// evaluation (section 7) on laptop-scale reproductions of the model
// problem. The scaled series holds degrees of freedom per simulated rank
// roughly constant, exactly the paper's protocol; timings come from wall
// clocks for the phase breakdown and from the calibrated machine model of
// internal/perf for the cluster-scale efficiency figures. See DESIGN.md
// for the experiment index (E1-E19) and EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"time"

	"prometheus/internal/core"
	"prometheus/internal/fem"
	"prometheus/internal/graph"
	"prometheus/internal/krylov"
	"prometheus/internal/multigrid"
	"prometheus/internal/par"
	"prometheus/internal/perf"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

// SizeSpec is one point of the scaled study.
type SizeSpec struct {
	Name  string
	Cfg   problems.SpheresConfig
	Ranks int
}

// TargetDofPerRank is the scaled-down analogue of the paper's ~40k dof per
// processor.
const TargetDofPerRank = 1500

// seriesCfg is the reduced (5-layer) geometry with k elements per layer:
// the sizes every report runs at under prombench. The report bodies take
// the configuration as an argument so the package's tests can render
// them on a smaller grid.
func seriesCfg(k int) problems.SpheresConfig {
	return problems.SpheresConfig{Layers: 5, ElemsPerLayer: k, CoreElems: 2 * k, OuterElems: 2 * k}
}

// Series returns the scaled problem series: the reduced (5-layer) geometry
// with k = 1..maxK elements per layer, simulated rank counts chosen to
// hold dof/rank constant. With TargetDofPerRank = 1500 the rank series
// comes out 2, 14, 44, ... mirroring the paper's 2, 15, 50, ...
func Series(maxK int) []SizeSpec {
	var out []SizeSpec
	for k := 1; k <= maxK; k++ {
		cfg := seriesCfg(k)
		n := cfg.NumRadial()
		dof := 3 * (n + 1) * (n + 1) * (n + 1)
		ranks := dof / TargetDofPerRank
		if ranks < 2 {
			ranks = 2
		}
		out = append(out, SizeSpec{
			Name:  fmt.Sprintf("k=%d", k),
			Cfg:   cfg,
			Ranks: ranks,
		})
	}
	return out
}

// assembleFirstTangent integrates the tangent and internal force of the
// first Newton iteration of the crush (the displacement scaled to the
// first of ten steps): the operator of the section 7.1 linear study.
func assembleFirstTangent(s *problems.Spheres) (*fem.Problem, *sparse.CSR, []float64, error) {
	p := fem.NewProblem(s.Mesh, s.Models, true)
	u := make([]float64, s.Mesh.NumDOF())
	s.Cons.Scaled(0.1).Apply(u)
	k, fint, err := p.AssembleTangent(u)
	return p, k, fint, err
}

// incrementDofMap numbers the free dofs of the homogeneous form of the
// problem's constraints, the form Newton increments satisfy.
func incrementDofMap(s *problems.Spheres) (*fem.Constraints, *fem.DofMap) {
	zero := fem.NewConstraints()
	for d := range s.Cons.Fixed {
		zero.FixDof(d, 0)
	}
	return zero, zero.NewDofMap(s.Mesh.NumDOF())
}

// reduceFirstTangent eliminates the constrained dofs from k and from the
// Newton right-hand side -fint.
func reduceFirstTangent(s *problems.Spheres, k *sparse.CSR, fint []float64) (*fem.DofMap, *sparse.CSR, []float64) {
	zero, dm := incrementDofMap(s)
	r := make([]float64, len(fint))
	for i := range r {
		r[i] = -fint[i]
	}
	kred, rred := zero.Reduce(k, r, dm)
	return dm, kred, rred
}

// firstSystem is assembleFirstTangent followed by reduceFirstTangent, for
// the reports that do not time the two apart.
func firstSystem(s *problems.Spheres) (*fem.DofMap, *sparse.CSR, []float64, error) {
	_, k, fint, err := assembleFirstTangent(s)
	if err != nil {
		return nil, nil, nil, err
	}
	dm, kred, rred := reduceFirstTangent(s, k, fint)
	return dm, kred, rred, nil
}

// restrictions returns the restriction chain of h for a fine operator
// reduced by dm: the first restriction loses its constrained columns.
func restrictions(h *core.Hierarchy, dm *fem.DofMap) []*sparse.CSR {
	var rs []*sparse.CSR
	for l := 1; l < h.NumLevels(); l++ {
		r := h.Grids[l].R
		if l == 1 {
			r = multigrid.CompressCols(r, dm.Full2Red, dm.NumFree())
		}
		rs = append(rs, r)
	}
	return rs
}

// LinearRun is the outcome of one scaled linear solve (the section 7.1
// study: tangent of the first Newton iteration, rtol = 1e-4).
type LinearRun struct {
	Spec   SizeSpec
	Dof    int // total dofs (3 per vertex)
	Free   int // free dofs after constraints
	Levels int
	Iters  int
	Lost   int // lost vertices across all levels

	// Wall-clock phase breakdown (Figure 10 components).
	Wall map[string]time.Duration

	// Exact flop counts.
	SolveFlops int64 // Krylov + cycles + smoothers
	SetupFlops int64 // Galerkin products + factorizations
	FineFlops  int64 // element integration (FEAP phase)

	// Per-rank modeled work (solve phase).
	RankFlops []int64
	RankBytes []int64
	RankMsgs  []int64

	// Machine-model solve times.
	ModelSolveMax float64
	ModelSolveAvg float64
	// ModelMflops is the modeled aggregate rate (total flops / max time).
	ModelMflops float64
}

// RunLinear executes one point of the scaled study.
func RunLinear(spec SizeSpec, machine perf.Machine, mgOpts multigrid.Options) (*LinearRun, error) {
	phases := perf.NewPhases()
	out := &LinearRun{Spec: spec, Wall: phases.Wall}

	s := problems.NewSpheresConfig(spec.Cfg)
	out.Dof = s.Mesh.NumDOF()

	// Partitioning (the paper's Athena/ParMetis phase): RCB over vertices.
	var owner []int
	phases.Time("partition", func() {
		owner = graph.RCB(s.Mesh.Coords, spec.Ranks)
	})

	// Mesh setup (Prometheus): coarsening and restriction construction.
	var h *core.Hierarchy
	var err error
	phases.Time("mesh setup", func() {
		h, err = core.Coarsen(s.Mesh, core.Options{})
	})
	if err != nil {
		return nil, err
	}
	out.Levels = h.NumLevels()
	for _, g := range h.Grids {
		out.Lost += g.Lost
	}

	// Fine grid creation (FEAP): element integration and assembly of the
	// first Newton tangent.
	var p *fem.Problem
	var k *sparse.CSR
	var fint []float64
	phases.Time("fine grid", func() {
		p, k, fint, err = assembleFirstTangent(s)
	})
	if err != nil {
		return nil, err
	}
	out.FineFlops = p.AssembleFlops
	dm, kred, rred := reduceFirstTangent(s, k, fint)
	out.Free = kred.NRows

	// Matrix setup (Epimetheus/PETSc): Galerkin products, factorizations.
	rs := restrictions(h, dm)
	var mg *multigrid.MG
	phases.Time("matrix setup", func() {
		mg, err = multigrid.New(kred, rs, mgOpts)
	})
	if err != nil {
		return nil, err
	}
	out.SetupFlops = mg.SetupFlops

	// Solve for x: FPCG to the paper's first-solve tolerance.
	x := make([]float64, kred.NRows)
	var res krylov.Result
	phases.Time("solve", func() {
		res = krylov.FPCG(kred, rred, x, mg, 1e-4, 2000)
	})
	if !res.Converged {
		return nil, fmt.Errorf("experiments: %s did not converge in %d its", spec.Name, res.Iterations)
	}
	out.Iters = res.Iterations
	out.SolveFlops = res.Flops + mg.Flops()

	// Distribute the measured work over the simulated ranks and model the
	// solve time.
	if err := out.model(h, dm, owner, kred, mg, spec.Ranks, machine); err != nil {
		return nil, err
	}
	return out, nil
}

// model distributes measured per-level flops across ranks in proportion to
// owned matrix rows (nnz) and derives halo communication volumes from the
// actual level operators under the inherited RCB partition.
func (lr *LinearRun) model(h *core.Hierarchy, dm *fem.DofMap, fineVertOwner []int,
	kred *sparse.CSR, mg *multigrid.MG, ranks int, machine perf.Machine) error {

	// Owner per dof, per level. Level 0: reduced dofs -> fine vertex owner.
	levelOwners := make([][]int, mg.NumLevels())
	o0 := make([]int, kred.NRows)
	for rIdx, full := range dm.Red2Full {
		o0[rIdx] = fineVertOwner[full/3]
	}
	levelOwners[0] = o0
	// Coarser levels: chain the Verts maps (grid l vertex j came from grid
	// l-1 vertex Verts[j]).
	vertOwner := fineVertOwner
	for l := 1; l < h.NumLevels(); l++ {
		g := h.Grids[l]
		co := make([]int, g.Mesh.NumVerts())
		for j, v := range g.Verts {
			co[j] = vertOwner[v]
		}
		vertOwner = co
		od := make([]int, 3*g.Mesh.NumVerts())
		for j, ow := range co {
			od[3*j] = ow
			od[3*j+1] = ow
			od[3*j+2] = ow
		}
		if l < mg.NumLevels() {
			levelOwners[l] = od
		}
	}

	lr.RankFlops = make([]int64, ranks)
	lr.RankBytes = make([]int64, ranks)
	lr.RankMsgs = make([]int64, ranks)
	levelWork := mg.LevelWork()
	// Add the Krylov vector work to level 0.
	levelWork[0] += lr.SolveFlops - perf.Sum(levelWork)

	for l, lvl := range mg.Levels {
		// The communication model traverses rows; take a scalar view of the
		// level operator (identity for CSR levels, expansion for BSR).
		a := sparse.AsCSR(lvl.A)
		owners := levelOwners[l]
		if len(owners) != a.NRows {
			return fmt.Errorf("experiments: owner mismatch at level %d: %d vs %d", l, len(owners), a.NRows)
		}
		// Owned nnz per rank.
		nnzOwned := make([]int64, ranks)
		for i := 0; i < a.NRows; i++ {
			nnzOwned[owners[i]] += int64(a.RowNNZ(i))
		}
		total := int64(a.NNZ())
		if total == 0 {
			continue
		}
		// Matvec-equivalent applications on this level.
		apps := float64(levelWork[l]) / float64(2*total)
		halo := par.NewHalo(a, owners, ranks)
		for rk := 0; rk < ranks; rk++ {
			lr.RankFlops[rk] += int64(float64(levelWork[l]) * float64(nnzOwned[rk]) / float64(total))
			ghosts := halo.GhostCount(rk)
			lr.RankBytes[rk] += int64(8 * float64(ghosts) * apps)
			if ghosts > 0 {
				// One message round per application per neighbouring rank;
				// approximate the neighbour count by ghosts^(0) bounded by
				// ranks-1 — use a conservative 6-neighbour stencil typical
				// of RCB partitions.
				nb := 6
				if nb > ranks-1 {
					nb = ranks - 1
				}
				lr.RankMsgs[rk] += int64(float64(nb) * apps)
			}
		}
	}
	lr.ModelSolveMax, lr.ModelSolveAvg = machine.PhaseTime(lr.RankFlops, lr.RankMsgs, lr.RankBytes)
	if lr.ModelSolveMax > 0 {
		lr.ModelMflops = float64(perf.Sum(lr.RankFlops)) / lr.ModelSolveMax / 1e6
	}
	return nil
}

// RatePerProc returns the modeled sustained flop rate per simulated
// processor (flops/sec).
func (lr *LinearRun) RatePerProc() float64 {
	if lr.ModelSolveMax == 0 {
		return 0
	}
	return float64(perf.Sum(lr.RankFlops)) / lr.ModelSolveMax / float64(lr.Spec.Ranks)
}

// efficiencies is the section 6 decomposition of the run's scaled
// efficiency against the base run of its series.
func (lr *LinearRun) efficiencies(base *LinearRun) perf.Efficiencies {
	return perf.Decompose(base.Iters, lr.Iters, base.SolveFlops, lr.SolveFlops,
		base.Free, lr.Free, base.Spec.Ranks, lr.Spec.Ranks,
		base.RatePerProc(), lr.RatePerProc(), lr.LoadBalance())
}

// LoadBalance returns the flop balance across ranks.
func (lr *LinearRun) LoadBalance() float64 { return perf.LoadBalance(lr.RankFlops) }
