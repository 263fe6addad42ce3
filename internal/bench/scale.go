package bench

import (
	"fmt"
	"math"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/obs"
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
	// Digest is the run's FNV-1a schedule digest — the value the parallel
	// sweep executor must reproduce bit for bit against a serial sweep.
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

// runScale executes one phantom factorization on `nodes` Summit nodes,
// optionally under a fault plan (runtime.ParseFaultSpec grammar; empty
// means fault-free) and a named scheduling policy / broadcast topology.
// A non-nil reg receives the run's engine metrics (the sweep executor
// passes each point's registry shard here).
func runScale(cfg scaleConfig, nodes, n, ts int, seed uint64, faultSpec string, so SchedOpts, reg *obs.Registry) (ScaleRow, error) {
	pol, topo, err := so.Resolve()
	if err != nil {
		return ScaleRow{}, err
	}
	plat, err := runtime.NewPlatform(hw.SummitNode, nodes, 0)
	if err != nil {
		return ScaleRow{}, err
	}
	var faults runtime.FaultInjector
	if faultSpec != "" {
		plan, err := runtime.ParseFaultSpec(faultSpec, plat.NumDevices())
		if err != nil {
			return ScaleRow{}, err
		}
		faults = plan
	}
	pg, qg := tile.SquarestGrid(nodes)
	desc, err := tile.NewDesc(n, ts, pg, qg)
	if err != nil {
		return ScaleRow{}, err
	}
	var km [][]prec.Precision
	ureq := 1e-2
	if cfg.app != nil {
		rng := stats.NewRNG(seed, 0)
		locs := geo.GenerateLocations(n, cfg.app.Kernel.Dim(), rng)
		normFn, global := precmap.EstimateTileNorms(locs, desc, cfg.app.Kernel, cfg.app.Theta, cfg.app.Nugget, 64, rng)
		km = precmap.NewKernelMap(desc.NT, normFn, global, cfg.app.UReq, prec.CholeskySet)
		ureq = cfg.app.UReq
	} else {
		km = precmap.UniformAll(desc.NT, cfg.uniform)
	}
	maps := precmap.New(km, ureq)
	res, err := cholesky.Run(cholesky.Config{
		Desc: desc, Maps: maps, Platform: plat, Strategy: cholesky.Auto,
		Faults: faults, Sched: pol, Bcast: topo,
	})
	if err != nil {
		return ScaleRow{}, fmt.Errorf("bench: scale %s nodes=%d n=%d: %w", cfg.name, nodes, n, err)
	}
	if reg != nil {
		reg.Merge(res.Metrics())
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

// WeakScaling runs Fig 12a: the matrix grows with the GPU count so per-GPU
// memory stays constant (N ∝ √GPUs), FP64 configuration.
func WeakScaling(nodeCounts []int, baseN, ts int) ([]ScaleRow, error) {
	return WeakScalingFaults(nodeCounts, baseN, ts, "")
}

// WeakScalingFaults is WeakScaling with a fault plan injected into every
// run; reported times include the recovery overhead.
func WeakScalingFaults(nodeCounts []int, baseN, ts int, faultSpec string) ([]ScaleRow, error) {
	return WeakScalingOpts(nodeCounts, baseN, ts, faultSpec, SchedOpts{})
}

// WeakScalingOpts is the fully parameterized weak-scaling sweep: a fault
// plan plus a named scheduling policy and broadcast topology, one sweep
// point per node count (parallel when so.Workers > 0).
func WeakScalingOpts(nodeCounts []int, baseN, ts int, faultSpec string, so SchedOpts) ([]ScaleRow, error) {
	base := float64(nodeCounts[0])
	return sweep.Run(len(nodeCounts), so.sweepOptions(), func(i int, ctx *sweep.Context) (ScaleRow, error) {
		nodes := nodeCounts[i]
		n := int(float64(baseN) * math.Sqrt(float64(nodes)/base))
		n = (n + ts - 1) / ts * ts
		return runScale(scaleConfig{name: "FP64", uniform: prec.FP64}, nodes, n, ts, 1, faultSpec, so, ctx.Reg)
	})
}

// StrongScaling runs Fig 12b: fixed matrix size (the paper uses 798,720)
// over increasing node counts, FP64 configuration.
func StrongScaling(nodeCounts []int, n, ts int) ([]ScaleRow, error) {
	return StrongScalingFaults(nodeCounts, n, ts, "")
}

// StrongScalingFaults is StrongScaling with a fault plan injected into
// every run; reported times include the recovery overhead.
func StrongScalingFaults(nodeCounts []int, n, ts int, faultSpec string) ([]ScaleRow, error) {
	return StrongScalingOpts(nodeCounts, n, ts, faultSpec, SchedOpts{})
}

// StrongScalingOpts is the fully parameterized strong-scaling sweep: a
// fault plan plus a named scheduling policy and broadcast topology, one
// sweep point per node count (parallel when so.Workers > 0).
func StrongScalingOpts(nodeCounts []int, n, ts int, faultSpec string, so SchedOpts) ([]ScaleRow, error) {
	return sweep.Run(len(nodeCounts), so.sweepOptions(), func(i int, ctx *sweep.Context) (ScaleRow, error) {
		return runScale(scaleConfig{name: "FP64", uniform: prec.FP64}, nodeCounts[i], n, ts, 1, faultSpec, so, ctx.Reg)
	})
}

// MPEffect runs Fig 12c: on a fixed node count (the paper uses 64 nodes =
// 384 GPUs), FP64 and FP32 baselines and the three applications' adaptive
// MP across a matrix-size sweep, reporting speedup over FP64. The speedup
// column chains each row to the FP64 baseline of its size, so this family
// stays serial.
func MPEffect(nodes int, sizes []int, ts int) ([]ScaleRow, error) {
	var rows []ScaleRow
	fp64 := make(map[int]float64) // n -> time
	for _, cfg := range scaleConfigs(true) {
		for _, n := range sizes {
			r, err := runScale(cfg, nodes, n, ts, 2, "", SchedOpts{}, nil)
			if err != nil {
				return nil, err
			}
			if cfg.name == "FP64" {
				fp64[n] = r.Time
			}
			if t, ok := fp64[n]; ok && r.Time > 0 {
				r.Speedup = t / r.Time
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}
