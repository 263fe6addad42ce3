package mle

import (
	"errors"
	"math"

	"geompc/internal/cg"
	"geompc/internal/precmap"
	"geompc/internal/solver"
	"geompc/internal/tile"
)

// slqSeed fixes the Rademacher probe streams of the log-det estimator so
// every likelihood evaluation of a problem reuses the same probes — the
// objective stays a deterministic function of θ, which the optimizer's
// memoization and the Monte-Carlo reproducibility both rely on.
const slqSeed = 0x51c9

// negLogLikCG evaluates −ℓ(θ) through the iterative backend: the weights
// w = Σ⁻¹Z come from a preconditioned CG solve and log|Σ| from stochastic
// Lanczos quadrature over the same task-graph engine, so the evaluation's
// simulated cost (solve + probes) accumulates into rs exactly like the
// direct path's factorizations do.
func (p *Problem) negLogLikCG(desc tile.Desc, maps *precmap.Maps, mat *tile.Matrix, rs *RunStats) (float64, error) {
	n := len(p.Locs)
	scfg := solver.Config{
		Desc: desc, Maps: maps, Platform: p.Platform, Matrix: mat,
		RHS: p.Z, Strategy: p.Strategy,
	}
	res, err := cg.Run(scfg, nil)
	if err != nil {
		if errors.Is(err, cg.ErrNotSPD) {
			if rs != nil {
				rs.Rejected++
			}
			return math.Inf(1), nil
		}
		return 0, err
	}
	if rs != nil {
		rs.addSolver(res)
	}
	if res.Err != nil || !res.Converged {
		if rs != nil {
			rs.Rejected++
		}
		return math.Inf(1), nil
	}
	quad := 0.0
	for i, v := range p.Z {
		quad += v * res.Solution[i]
	}

	logdet, probeRes, err := cg.LogDetSLQ(scfg, p.SLQProbes, p.SLQIters, slqSeed)
	if rs != nil {
		for _, pr := range probeRes {
			rs.addProbe(pr)
		}
	}
	if err != nil {
		// A failed probe (breakdown, non-positive Ritz value) is the
		// iterative analogue of a non-SPD pivot: θ is infeasible.
		if errors.Is(err, cg.ErrNotSPD) {
			if rs != nil {
				rs.Rejected++
			}
			return math.Inf(1), nil
		}
		return 0, err
	}

	nll := 0.5 * (float64(n)*math.Log(2*math.Pi) + logdet + quad)
	if math.IsNaN(nll) {
		return math.Inf(1), nil
	}
	return nll, nil
}
