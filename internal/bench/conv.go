package bench

import (
	"fmt"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// ConvConfig is one line of Fig 8/11: a fixed two-precision extreme (or a
// uniform baseline) for the tile Cholesky.
type ConvConfig struct {
	Name string
	// OffDiag is the kernel precision of all off-diagonal tiles; diagonal
	// tiles stay FP64 unless Uniform is set.
	OffDiag prec.Precision
	// Uniform applies OffDiag to the diagonal too (FP64/FP32 baselines).
	Uniform bool
}

// ConvConfigs returns the configurations of Fig 8: the FP64 and FP32
// baselines and the FP64/FP16_32 and FP64/FP16 extremes where every
// communication is eligible for STC.
func ConvConfigs() []ConvConfig {
	return []ConvConfig{
		{Name: "FP64", OffDiag: prec.FP64, Uniform: true},
		{Name: "FP32", OffDiag: prec.FP32, Uniform: true},
		{Name: "FP64/FP16_32", OffDiag: prec.FP16x32},
		{Name: "FP64/FP16", OffDiag: prec.FP16},
	}
}

// KernelMap realizes the configuration for an NT×NT tiling.
func (c ConvConfig) KernelMap(nt int) [][]prec.Precision {
	if c.Uniform {
		return precmap.UniformAll(nt, c.OffDiag)
	}
	return precmap.Uniform(nt, c.OffDiag)
}

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
// configuration × conversion strategy × matrix size.
type convPoint struct {
	cfg   ConvConfig
	strat cholesky.Strategy
	n     int
}

// convGrid flattens the sweep's nested loops into submission order —
// the row order every worker count must reproduce.
func convGrid(sizes []int) []convPoint {
	var pts []convPoint
	for _, cfg := range ConvConfigs() {
		strategies := []cholesky.Strategy{cholesky.Auto, cholesky.ForceTTC}
		if cfg.Uniform {
			// Uniform-precision baselines have no precision mismatch; STC
			// and TTC coincide, so report a single line.
			strategies = strategies[:1]
		}
		for _, strat := range strategies {
			for _, n := range sizes {
				pts = append(pts, convPoint{cfg: cfg, strat: strat, n: n})
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

// solvePoint is the body every phantom sweep point shares: lay an n×n
// matrix of ts-sized tiles over the platform's squarest process grid, build
// the precision maps from km at accuracy ureq and run one factorization.
// cfg carries everything but Desc and Maps; label names the point in a
// solve error.
func solvePoint(cfg cholesky.Config, n, ts int,
	km func(tile.Desc) [][]prec.Precision, ureq float64, label string) (*cholesky.Result, error) {
	pg, qg := tile.SquarestGrid(cfg.Platform.Ranks)
	desc, err := tile.NewDesc(n, ts, pg, qg)
	if err != nil {
		return nil, err
	}
	cfg.Desc = desc
	cfg.Maps = precmap.New(km(desc), ureq)
	res, err := cholesky.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", label, err)
	}
	return res, nil
}

// ConvSweepOpts runs Fig 8 (single GPU) or Fig 11 (full node) for one
// machine: every configuration × {STC, TTC} × matrix size, in phantom mode.
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
		cfg := cholesky.Config{Platform: plat, Strategy: p.strat}
		res, err := solvePoint(cfg, p.n, ts,
			func(d tile.Desc) [][]prec.Precision { return p.cfg.KernelMap(d.NT) }, 1e-2,
			fmt.Sprintf("%s %v n=%d", p.cfg.Name, p.strat, p.n))
		if err != nil {
			return ConvRow{}, err
		}
		peak := node.GPU.SupportedPeak(p.cfg.OffDiag) * float64(plat.NumDevices())
		return ConvRow{
			Config:   p.cfg.Name,
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
