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

	"prometheus"
	"prometheus/internal/graph"
	"prometheus/internal/krylov"
	"prometheus/internal/multigrid"
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
// first of ten steps): the operator of the section 7.1 linear study. It
// returns the tangent and the Newton right-hand side -fint, negated in
// place.
func assembleFirstTangent(s *problems.Spheres) (*prometheus.Problem, *sparse.CSR, []float64, error) {
	p := prometheus.NewProblem(s.Mesh, s.Models, true)
	u := make([]float64, s.Mesh.NumDOF())
	s.Cons.Scaled(0.1).Apply(u)
	k, r, err := p.AssembleTangent(u)
	for i := range r {
		r[i] = -r[i]
	}
	return p, k, r, err
}

// incrementSolver runs the mesh setup of the model problem for its Newton
// increment system, whose constraints are the homogeneous form of s.Cons.
// Coarsening reads no constraint values, so the hierarchy and the free
// dofs are those of the crush's own solver.
func incrementSolver(s *problems.Spheres, opts prometheus.Options) (*prometheus.Solver, error) {
	return prometheus.NewSolver(s.Mesh, s.Cons.Homogeneous(), opts)
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
func RunLinear(spec SizeSpec, machine perf.Machine) (*LinearRun, error) {
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
	var solver *prometheus.Solver
	var err error
	phases.Time("mesh setup", func() {
		solver, err = incrementSolver(s, prometheus.Options{RTol: 1e-4, MaxIters: 2000})
	})
	if err != nil {
		return nil, err
	}
	out.Levels = solver.NumLevels()
	for _, g := range solver.Hier.Grids {
		out.Lost += g.Lost
	}

	// Fine grid creation (FEAP): element integration and assembly of the
	// first Newton tangent.
	var p *prometheus.Problem
	var k *sparse.CSR
	var r []float64
	phases.Time("fine grid", func() {
		p, k, r, err = assembleFirstTangent(s)
	})
	if err != nil {
		return nil, err
	}
	out.FineFlops = p.AssembleFlops
	kred, rred := solver.ReduceSystem(k, r)
	out.Free = kred.NRows

	// Matrix setup (Epimetheus/PETSc): Galerkin products, factorizations.
	var mg *multigrid.MG
	phases.Time("matrix setup", func() {
		mg, err = solver.Preconditioner(kred)
	})
	if err != nil {
		return nil, err
	}
	out.SetupFlops = mg.SetupFlops

	// Solve for x: FPCG to the paper's first-solve tolerance.
	x := make([]float64, kred.NRows)
	var res krylov.Result
	phases.Time("solve", func() {
		res = krylov.FPCG(kred, rred, x, mg, solver.Opts.RTol, solver.Opts.MaxIters)
	})
	if !res.Converged {
		return nil, fmt.Errorf("experiments: %s did not converge in %d its", spec.Name, res.Iterations)
	}
	out.Iters = res.Iterations
	out.SolveFlops = res.Flops + mg.Flops()

	// Distribute the measured work over the simulated ranks and model the
	// solve time.
	if err := out.model(solver, owner, mg, spec.Ranks, machine); err != nil {
		return nil, err
	}
	return out, nil
}

// levelOwners returns the simulated rank owning each dof of each of the
// first n multigrid levels. Level 0's reduced dofs take their fine
// vertex's owner; a coarse vertex takes the owner of the fine vertex it
// came from, chained through the Verts maps (grid g vertex j came from
// grid g-1 vertex Verts[j]) of every grid from the last level's to this
// level's, folded grids included.
func levelOwners(solver *prometheus.Solver, fineVertOwner []int, n int) [][]int {
	owners := make([][]int, n)
	free := solver.FreeDofs()
	owners[0] = make([]int, len(free))
	for rIdx, full := range free {
		owners[0][rIdx] = fineVertOwner[full/3]
	}
	h := solver.Hier
	vertOwner := fineVertOwner
	for l := 1; l < n; l++ {
		for gi := solver.LevelGrid(l-1) + 1; gi <= solver.LevelGrid(l); gi++ {
			co := make([]int, len(h.Grids[gi].Verts))
			for j, v := range h.Grids[gi].Verts {
				co[j] = vertOwner[v]
			}
			vertOwner = co
		}
		od := make([]int, 3*len(vertOwner))
		for j, ow := range vertOwner {
			od[3*j] = ow
			od[3*j+1] = ow
			od[3*j+2] = ow
		}
		owners[l] = od
	}
	return owners
}

// model distributes measured per-level flops across ranks in proportion to
// owned matrix rows (nnz) and derives halo communication volumes from the
// actual level operators under the inherited RCB partition.
func (lr *LinearRun) model(solver *prometheus.Solver, fineVertOwner []int,
	mg *multigrid.MG, ranks int, machine perf.Machine) error {

	dofOwners := levelOwners(solver, fineVertOwner, mg.NumLevels())
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
		owners := dofOwners[l]
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
		ghostCount := ghostCounts(a, owners, ranks)
		for rk := 0; rk < ranks; rk++ {
			lr.RankFlops[rk] += int64(float64(levelWork[l]) * float64(nnzOwned[rk]) / float64(total))
			ghosts := ghostCount[rk]
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

// ghostCounts returns, per rank, the number of distinct columns owned by
// other ranks that its rows touch: the values one halo exchange of a
// row-partitioned product brings in (par.Halo.GhostCount).
func ghostCounts(a *sparse.CSR, owner []int, ranks int) []int {
	rows := make([][]int, ranks)
	for i, r := range owner {
		rows[r] = append(rows[r], i)
	}
	out := make([]int, ranks)
	counted := make([]int, a.NCols) // rank+1 that last counted the column
	for r, rs := range rows {
		for _, i := range rs {
			cols, _ := a.Row(i)
			for _, j := range cols {
				if owner[j] != r && counted[j] != r+1 {
					counted[j] = r + 1
					out[r]++
				}
			}
		}
	}
	return out
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
