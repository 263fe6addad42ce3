package bench

import (
	"fmt"
	"math"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// ScaleRow is one point of Fig 12.
type ScaleRow struct {
	Config  string
	Nodes   int
	GPUs    int
	N       int
	Tflops  float64
	Time    float64
	PctPeak float64
	// Speedup vs. the FP64 run of the same N/GPU count (Fig 12c).
	Speedup float64
	// Digest is the run's FNV-1a schedule digest — the value the sweep
	// executor must reproduce bit for bit at every pool width.
	Digest uint64
}

// scaleConfig is either a uniform baseline or an application map.
type scaleConfig struct {
	name    string
	app     *App
	uniform prec.Precision
}

func scaleConfigs(withFP32 bool) []scaleConfig {
	out := []scaleConfig{{name: "FP64", uniform: prec.FP64}}
	if withFP32 {
		out = append(out, scaleConfig{name: "FP32", uniform: prec.FP32})
	}
	apps := Apps()
	for i := range apps {
		out = append(out, scaleConfig{name: apps[i].Name, app: &apps[i]})
	}
	return out
}

// runScale executes one phantom factorization on `nodes` Summit nodes
// under the named policy / topology of so.
func runScale(ctx *sweep.Context, cfg scaleConfig, nodes, n, ts int, seed uint64, so SchedOpts) (ScaleRow, error) {
	plat, err := runtime.NewPlatform(hw.SummitNode, nodes, 0)
	if err != nil {
		return ScaleRow{}, err
	}
	base, err := so.Config(cholesky.Config{Platform: plat})
	if err != nil {
		return ScaleRow{}, err
	}
	km := func(d tile.Desc) [][]prec.Precision { return precmap.UniformAll(d.NT, cfg.uniform) }
	ureq := 1e-2
	if cfg.app != nil {
		km = func(d tile.Desc) [][]prec.Precision {
			rng := stats.NewRNG(seed, 0)
			locs := geo.GenerateLocations(n, cfg.app.Kernel.Dim(), rng)
			normFn, global := precmap.EstimateTileNorms(locs, d, cfg.app.Kernel, cfg.app.Theta, cfg.app.Nugget, 64, rng)
			return precmap.NewKernelMap(d.NT, normFn, global, cfg.app.UReq, prec.CholeskySet)
		}
		ureq = cfg.app.UReq
	}
	res, err := solvePoint(ctx, base, n, ts, km, ureq,
		fmt.Sprintf("scale %s nodes=%d n=%d", cfg.name, nodes, n))
	if err != nil {
		return ScaleRow{}, err
	}
	gpus := plat.NumDevices()
	peak := hw.V100.SupportedPeak(prec.FP64) * float64(gpus)
	return ScaleRow{
		Config: cfg.name, Nodes: nodes, GPUs: gpus, N: n,
		Tflops:  res.Stats.Flops / 1e12,
		Time:    res.Stats.Makespan,
		PctPeak: 100 * res.Stats.Flops / peak,
		Digest:  res.Digest(),
	}, nil
}

// WeakScalingOpts runs Fig 12a: the matrix grows with the GPU count so
// per-GPU memory stays constant (N ∝ √GPUs), FP64 configuration, one sweep
// point per node count, under the named scheduling policy and broadcast
// topology.
func WeakScalingOpts(nodeCounts []int, baseN, ts int, so SchedOpts) ([]ScaleRow, error) {
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("bench: weak scaling needs at least one node count")
	}
	// N is rounded up to a multiple of ts below: reject a bad tile size
	// with the descriptor's own error before dividing by it.
	if _, err := tile.NewDesc(baseN, ts, 1, 1); err != nil {
		return nil, err
	}
	base := float64(nodeCounts[0])
	return sweep.Run(len(nodeCounts), so.SweepOpts, func(i int, ctx *sweep.Context) (ScaleRow, error) {
		nodes := nodeCounts[i]
		n := int(float64(baseN) * math.Sqrt(float64(nodes)/base))
		n = (n + ts - 1) / ts * ts
		return runScale(ctx, scaleConfig{name: "FP64", uniform: prec.FP64}, nodes, n, ts, 1, so)
	})
}

// StrongScalingOpts runs Fig 12b: fixed matrix size (the paper uses
// 798,720) over increasing node counts, FP64 configuration, one sweep point
// per node count, with the same scheduling knobs as WeakScalingOpts.
func StrongScalingOpts(nodeCounts []int, n, ts int, so SchedOpts) ([]ScaleRow, error) {
	return sweep.Run(len(nodeCounts), so.SweepOpts, func(i int, ctx *sweep.Context) (ScaleRow, error) {
		return runScale(ctx, scaleConfig{name: "FP64", uniform: prec.FP64}, nodeCounts[i], n, ts, 1, so)
	})
}

// MPEffect runs Fig 12c: on a fixed node count (the paper uses 64 nodes =
// 384 GPUs), FP64 and FP32 baselines and the three applications' adaptive
// MP across a matrix-size sweep, one sweep point per (configuration, size).
// The speedup over the FP64 run of the same size is filled in once the
// sweep has returned every row.
func MPEffect(nodes int, sizes []int, ts int, so SweepOpts) ([]ScaleRow, error) {
	type point struct {
		cfg scaleConfig
		n   int
	}
	var pts []point
	for _, cfg := range scaleConfigs(true) {
		for _, n := range sizes {
			pts = append(pts, point{cfg: cfg, n: n})
		}
	}
	rows, err := sweep.Run(len(pts), so, func(i int, ctx *sweep.Context) (ScaleRow, error) {
		return runScale(ctx, pts[i].cfg, nodes, pts[i].n, ts, 2, SchedOpts{})
	})
	if err != nil {
		return nil, err
	}
	fp64 := make(map[int]float64) // n -> time
	for i := range rows {
		r := &rows[i]
		if r.Config == "FP64" {
			fp64[r.N] = r.Time
		}
		if t, ok := fp64[r.N]; ok && r.Time > 0 {
			r.Speedup = t / r.Time
		}
	}
	return rows, nil
}
