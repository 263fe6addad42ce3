package bench

import (
	"geompc/internal/geo"
	"geompc/internal/mle"
	"geompc/internal/stats"
)

// AccuracyCase is one panel of Figs 5/6: a covariance family with a
// correlation level (and smoothness for Matérn) whose parameters the
// Monte-Carlo study tries to recover at several accuracy thresholds.
type AccuracyCase struct {
	Name      string
	Kernel    geo.Kernel
	TrueTheta []float64
	Dim       int
}

// Fig5Cases returns the 2D panels: squared exponential and Matérn with
// weak (β=0.03) and strong (β=0.3) correlation, and rough (ν=0.5) and
// smooth (ν=1) Matérn fields (§VII-B).
func Fig5Cases() []AccuracyCase {
	return []AccuracyCase{
		{"2D-sqexp weak", geo.SqExp{Dimension: 2}, []float64{1, 0.03}, 2},
		{"2D-sqexp strong", geo.SqExp{Dimension: 2}, []float64{1, 0.3}, 2},
		{"2D-Matern weak-rough", geo.Matern{Dimension: 2}, []float64{1, 0.03, 0.5}, 2},
		{"2D-Matern strong-rough", geo.Matern{Dimension: 2}, []float64{1, 0.3, 0.5}, 2},
		{"2D-Matern weak-smooth", geo.Matern{Dimension: 2}, []float64{1, 0.03, 1}, 2},
		{"2D-Matern strong-smooth", geo.Matern{Dimension: 2}, []float64{1, 0.3, 1}, 2},
	}
}

// Fig6Cases returns the 3D squared-exponential panels.
func Fig6Cases() []AccuracyCase {
	return []AccuracyCase{
		{"3D-sqexp weak", geo.SqExp{Dimension: 3}, []float64{1, 0.03}, 3},
		{"3D-sqexp strong", geo.SqExp{Dimension: 3}, []float64{1, 0.3}, 3},
	}
}

// AccuracyResult is the Monte-Carlo outcome for one case at one level.
type AccuracyResult struct {
	Case      string
	UReq      float64
	Param     string
	Truth     float64
	Summary   stats.Summary
	Estimates []float64
	Failed    int
}

// AccuracyStudyEvals runs the Monte-Carlo estimation study for one case
// across the accuracy levels: replicas synthetic datasets of n locations
// each, refit at every level, with an explicit optimizer-evaluation cap (0
// uses the MLE default). Results arrive per (level, parameter).
func AccuracyStudyEvals(c AccuracyCase, levels []float64, replicas, n, tileSize int, seed uint64, maxEvals int) ([]AccuracyResult, error) {
	cfg := mle.MCConfig{
		Replicas:  replicas,
		N:         n,
		Dim:       c.Dim,
		Kernel:    c.Kernel,
		TrueTheta: c.TrueTheta,
		UReqs:     levels,
		Nugget:    1e-7,
		TileSize:  tileSize,
		Seed:      seed,
		MaxEvals:  maxEvals,
	}
	mcs, err := mle.MonteCarlo(cfg)
	if err != nil {
		return nil, err
	}
	names := c.Kernel.ParamNames()
	var out []AccuracyResult
	for _, mc := range mcs {
		for pi, name := range names {
			if len(mc.Estimates[pi]) == 0 {
				continue
			}
			out = append(out, AccuracyResult{
				Case:      c.Name,
				UReq:      mc.UReq,
				Param:     name,
				Truth:     c.TrueTheta[pi],
				Summary:   stats.Summarize(mc.Estimates[pi]),
				Estimates: mc.Estimates[pi],
				Failed:    mc.Failed,
			})
		}
	}
	return out, nil
}
