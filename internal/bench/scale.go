package bench

import (
	"fmt"
	"math"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/runtime"
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

// runScale executes one phantom factorization on `nodes` Summit nodes. An
// application map samples 64 entries per tile (the figure's committed
// results were drawn that way), from RNG stream 0 of seed.
func runScale(v Variant, nodes, n, ts int, seed uint64) (ScaleRow, error) {
	plat, err := runtime.NewPlatform(hw.SummitNode, nodes, 0)
	if err != nil {
		return ScaleRow{}, err
	}
	res, err := cholesky.RunPhantom(cholesky.Config{Platform: plat}, n, ts, v.Map(64, seed))
	if err != nil {
		return ScaleRow{}, err
	}
	gpus := plat.NumDevices()
	peak := hw.V100.SupportedPeak(prec.FP64) * float64(gpus)
	return ScaleRow{
		Config: v.Name, Nodes: nodes, GPUs: gpus, N: n,
		Tflops:  res.Stats.Flops / 1e12,
		Time:    res.Stats.Makespan,
		PctPeak: 100 * res.Stats.Flops / peak,
		Digest:  res.Digest(),
	}, nil
}

// WeakScaling runs Fig 12a: the matrix grows with the GPU count so
// per-GPU memory stays constant (N ∝ √GPUs), FP64 configuration, one sweep
// point per node count.
func WeakScaling(nodeCounts []int, baseN, ts int, so SweepOpts) ([]ScaleRow, error) {
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("bench: weak scaling needs at least one node count")
	}
	// N is rounded up to a multiple of ts below: reject a bad tile size
	// with the descriptor's own error before dividing by it.
	if _, err := tile.NewDesc(baseN, ts, 1, 1); err != nil {
		return nil, err
	}
	base := float64(nodeCounts[0])
	return sweep.Run(len(nodeCounts), so, func(i int) (ScaleRow, error) {
		nodes := nodeCounts[i]
		n := int(float64(baseN) * math.Sqrt(float64(nodes)/base))
		n = (n + ts - 1) / ts * ts
		return runScale(fp64, nodes, n, ts, 1)
	})
}

// StrongScaling runs Fig 12b: fixed matrix size (the paper uses
// 798,720) over increasing node counts, FP64 configuration, one sweep point
// per node count.
func StrongScaling(nodeCounts []int, n, ts int, so SweepOpts) ([]ScaleRow, error) {
	return sweep.Run(len(nodeCounts), so, func(i int) (ScaleRow, error) {
		return runScale(fp64, nodeCounts[i], n, ts, 1)
	})
}

// MPEffect runs Fig 12c: on a fixed node count (the paper uses 64 nodes =
// 384 GPUs), FP64 and FP32 baselines and the three applications' adaptive
// MP across a matrix-size sweep, one sweep point per (configuration, size).
// The speedup over the FP64 run of the same size is filled in once the
// sweep has returned every row.
func MPEffect(nodes int, sizes []int, ts int, so SweepOpts) ([]ScaleRow, error) {
	type point struct {
		v Variant
		n int
	}
	var pts []point
	for _, v := range append(Baselines()[:2], appVariants("")...) { // FP64, FP32, the apps
		for _, n := range sizes {
			pts = append(pts, point{v: v, n: n})
		}
	}
	rows, err := sweep.Run(len(pts), so, func(i int) (ScaleRow, error) {
		return runScale(pts[i].v, nodes, pts[i].n, ts, 2)
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
