package bench

import (
	"fmt"

	_ "geompc/internal/cg" // registers the "cg" backend; "direct" rides on
	// the package's ordinary cholesky import (ablation.go)
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/runtime"
	"geompc/internal/solver"
	"geompc/internal/sweep"
)

// SolverRow is one measurement of the solver-backend ablation: the same
// covariance problem shape run through one registered backend.
type SolverRow struct {
	Backend  string
	Strategy string
	N        int
	Time     float64
	Energy   float64
	Tflops   float64
	BytesH2D int64
	BytesNet int64
	// Iterations is the CG iteration count (0 for direct).
	Iterations int
	// Digest is the run's folded FNV-1a schedule digest — bit-identical
	// across sweep worker counts.
	Digest uint64
}

// solverPoint is one cell of the ablation grid: backend × strategy × size.
type solverPoint struct {
	backend string
	strat   solver.Strategy
	n       int
}

func solverGrid(backends []string, sizes []int) []solverPoint {
	var pts []solverPoint
	for _, b := range backends {
		for _, s := range []solver.Strategy{solver.Auto, solver.ForceTTC} {
			for _, n := range sizes {
				pts = append(pts, solverPoint{backend: b, strat: s, n: n})
			}
		}
	}
	return pts
}

// SolverAblation compares the registered solve paths on one machine in
// phantom mode: every backend × {STC, TTC} × matrix size, the same
// FP64/FP16 precision map, routed through the deterministic sweep
// executor. The direct rows cost one O(n³) factorization; the cg rows
// cost the modeled iteration trajectory's O(n²)-per-iteration task graph
// — the honest comparison the paper's framing implies: iterative wins
// when few iterations suffice (well-conditioned Σ, loose tolerance) and
// loses its advantage as conditioning or accuracy demands grow.
func SolverAblation(node *hw.NodeSpec, ranks, gpusPerRank int, sizes []int, ts int, so SchedOpts) ([]SolverRow, error) {
	return solverAblation(node, ranks, gpusPerRank, []string{"direct", "cg"}, sizes, ts, so)
}

// solverAblation is the backend-filtered core of SolverAblation; the
// benchmark series (SolverAblationDirect / SolverAblationCG) time one
// backend at a time through it.
func solverAblation(node *hw.NodeSpec, ranks, gpusPerRank int, backends []string, sizes []int, ts int, so SchedOpts) ([]SolverRow, error) {
	plat, err := runtime.NewPlatform(node, ranks, gpusPerRank)
	if err != nil {
		return nil, err
	}
	_, base, err := so.Config(solver.Config{Platform: plat})
	if err != nil {
		return nil, err
	}
	pts := solverGrid(backends, sizes)
	return sweep.Run(len(pts), so.sweepOptions(), func(i int, ctx *sweep.Context) (SolverRow, error) {
		p := pts[i]
		b, err := solver.ByName(p.backend)
		if err != nil {
			return SolverRow{}, err
		}
		cfg := base
		cfg.Strategy = p.strat
		res, err := solvePoint(ctx, b, cfg, p.n, ts, uniformOffDiag(prec.FP16), 1e-2,
			fmt.Sprintf("solver %s %v n=%d", p.backend, p.strat, p.n))
		if err != nil {
			return SolverRow{}, err
		}
		return SolverRow{
			Backend:    p.backend,
			Strategy:   p.strat.String(),
			N:          p.n,
			Time:       res.Stats.Makespan,
			Energy:     res.Stats.Energy,
			Tflops:     res.Stats.Flops / 1e12,
			BytesH2D:   res.Stats.BytesH2D,
			BytesNet:   res.Stats.BytesNet,
			Iterations: res.Iterations,
			Digest:     res.Digest(),
		}, nil
	})
}
