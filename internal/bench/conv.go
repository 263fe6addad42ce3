package bench

import (
	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/runtime"
	"geompc/internal/sweep"
)

// ConvRow is one measurement of the STC/TTC comparison.
type ConvRow struct {
	Config   string
	Strategy string
	N        int
	Tflops   float64
	Time     float64
	BytesH2D int64
	BytesNet int64
	// PctPeak is achieved performance over the config's dominant-precision
	// peak (the dashed lines of Fig 8).
	PctPeak float64
	// Digest is the run's FNV-1a schedule digest — the value the sweep
	// executor must reproduce bit for bit at every pool width.
	Digest uint64
}

// convPoint is one cell of the conversion sweep's flattened grid:
// line × conversion strategy × matrix size.
type convPoint struct {
	v     Variant
	strat cholesky.Strategy
	n     int
}

// convGrid flattens the sweep's nested loops into submission order —
// the row order every worker count must reproduce.
func convGrid(sizes []int) []convPoint {
	var pts []convPoint
	for _, v := range Baselines() {
		strategies := []cholesky.Strategy{cholesky.Auto, cholesky.ForceTTC}
		if v.Uniform {
			// Uniform-precision baselines have no precision mismatch; STC
			// and TTC coincide, so report a single line.
			strategies = strategies[:1]
		}
		for _, strat := range strategies {
			for _, n := range sizes {
				pts = append(pts, convPoint{v: v, strat: strat, n: n})
			}
		}
	}
	return pts
}

// SweepOpts configures how a sweep family executes its grid: the options
// of the deterministic sweep executor (internal/sweep), i.e. the pool width
// (the commands pass sweep.PerCore; 0, one worker, is the reference the
// equivalence tests compare against). Rows are bit-identical at every
// width.
type SweepOpts = sweep.Options

// SchedOpts wraps SweepOpts only because the frozen benchmark/ tree passes
// one to ConvSweepOpts.
type SchedOpts struct{ SweepOpts }

// ConvSweepOpts runs Fig 8 (single GPU) or Fig 11 (full node) for one
// machine: every baseline × {STC, TTC} × matrix size, in phantom mode.
//
// The name's Opts suffix, the unused string parameter and the SchedOpts
// wrapper stay only because the frozen benchmark/ tree calls ConvSweepOpts
// that way (ROADMAP item 3).
func ConvSweepOpts(node *hw.NodeSpec, ranks, gpusPerRank int, sizes []int, ts int, _ string, so SchedOpts) ([]ConvRow, error) {
	plat, err := runtime.NewPlatform(node, ranks, gpusPerRank)
	if err != nil {
		return nil, err
	}
	pts := convGrid(sizes)
	return sweep.Run(len(pts), so.SweepOpts, func(i int) (ConvRow, error) {
		p := pts[i]
		res, err := cholesky.RunPhantom(cholesky.Config{Platform: plat, Strategy: p.strat}, p.n, ts, p.v.Map(0, 0))
		if err != nil {
			return ConvRow{}, err
		}
		peak := node.GPU.SupportedPeak(p.v.OffDiag) * float64(plat.NumDevices())
		return ConvRow{
			Config:   p.v.Name,
			Strategy: p.strat.String(),
			N:        p.n,
			Tflops:   res.Stats.Flops / 1e12,
			Time:     res.Stats.Makespan,
			BytesH2D: res.Stats.BytesH2D,
			BytesNet: res.Stats.BytesNet,
			PctPeak:  100 * res.Stats.Flops / peak,
			Digest:   res.Digest(),
		}, nil
	})
}
