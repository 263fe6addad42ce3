package bench

import (
	"fmt"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// TracePoint is one sample of a power or occupancy trace.
type TracePoint struct {
	T float64 // window start, seconds
	V float64 // watts (power trace) or busy fraction (occupancy trace)
}

// EnergyRun is the Fig 9/10 result for one configuration: the power and
// occupancy traces of device 0 plus the run's energy totals.
type EnergyRun struct {
	Label      string
	N          int
	Time       float64
	EnergyJ    float64
	GflopsPerW float64
	AvgPower   float64
	Power      []TracePoint
	Occupancy  []TracePoint
	// Res is the underlying factorization result, kept so callers can pull
	// the metrics registry or export a Chrome trace of the run.
	Res *cholesky.Result
}

// EnergyConfig selects what executes: a uniform FP64 baseline or one of the
// paper's applications under its required accuracy.
type EnergyConfig struct {
	Label string
	// App is nil for the FP64 baseline.
	App *App
	// OffDiag, when set with App nil and Label not FP64, builds a fixed
	// two-precision extreme (used by the Fig 9 occupancy panels).
	OffDiag prec.Precision
	Uniform bool
	// Audit turns on the runtime's invariant auditor for the run.
	Audit bool
}

// EnergySweepConfigs returns Fig 10's per-GPU comparisons: FP64 vs the
// adaptive MP approach for each application.
func EnergySweepConfigs() []EnergyConfig {
	apps := Apps()
	out := []EnergyConfig{{Label: "FP64", OffDiag: prec.FP64, Uniform: true}}
	for i := range apps {
		out = append(out, EnergyConfig{Label: "MP " + apps[i].Name, App: &apps[i]})
	}
	return out
}

// OccupancyConfigs returns Fig 9's four panels: FP64, FP32,
// FP64/FP16_32 and FP64/FP16 (all STC).
func OccupancyConfigs() []EnergyConfig {
	return []EnergyConfig{
		{Label: "FP64", OffDiag: prec.FP64, Uniform: true},
		{Label: "FP32", OffDiag: prec.FP32, Uniform: true},
		{Label: "FP64/FP16_32", OffDiag: prec.FP16x32},
		{Label: "FP64/FP16", OffDiag: prec.FP16},
	}
}

// EnergyRunOne executes one traced single-GPU factorization and bins its
// power and occupancy traces into `bins` windows.
func EnergyRunOne(node *hw.NodeSpec, cfg EnergyConfig, n, ts, bins int, seed uint64) (*EnergyRun, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("bench: energy run needs at least one trace window, got bins=%d", bins)
	}
	plat, err := runtime.NewPlatform(node, 1, 1)
	if err != nil {
		return nil, err
	}
	desc, err := tile.NewDesc(n, ts, 1, 1)
	if err != nil {
		return nil, err
	}
	var km [][]prec.Precision
	switch {
	case cfg.App != nil:
		rng := stats.NewRNG(seed, 0)
		locs := geo.GenerateLocations(n, cfg.App.Kernel.Dim(), rng)
		normFn, global := precmap.EstimateTileNorms(locs, desc, cfg.App.Kernel, cfg.App.Theta, cfg.App.Nugget, 128, rng)
		km = precmap.NewKernelMap(desc.NT, normFn, global, cfg.App.UReq, prec.CholeskySet)
	case cfg.Uniform:
		km = precmap.UniformAll(desc.NT, cfg.OffDiag)
	default:
		km = precmap.Uniform(desc.NT, cfg.OffDiag)
	}
	ureq := 1e-2
	if cfg.App != nil {
		ureq = cfg.App.UReq
	}
	maps := precmap.New(km, ureq)
	res, err := cholesky.Run(cholesky.Config{
		Desc: desc, Maps: maps, Platform: plat, Strategy: cholesky.Auto, Trace: true, Audit: cfg.Audit,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: energy run %s n=%d: %w", cfg.Label, n, err)
	}
	busy, xfer := res.DeviceTrace(0)
	run := &EnergyRun{
		Label:      cfg.Label,
		N:          n,
		Time:       res.Stats.Makespan,
		EnergyJ:    res.Stats.Energy,
		AvgPower:   res.Stats.AvgPower,
		GflopsPerW: res.Stats.TotalFlops / 1e9 / res.Stats.Energy,
		Res:        res,
	}
	run.Power = binPower(busy, xfer, node.GPU.IdleW, res.Stats.Makespan, bins)
	run.Occupancy = binOccupancy(busy, res.Stats.Makespan, bins)
	return run, nil
}

// binPower integrates the traced intervals into average watts per window:
// idle draw plus the dynamic power of compute and transfer activity.
func binPower(busy, xfer []runtime.Interval, idleW, makespan float64, bins int) []TracePoint {
	if bins <= 0 || makespan <= 0 {
		return nil
	}
	dt := makespan / float64(bins)
	acc := make([]float64, bins)
	addIntervals := func(ivs []runtime.Interval) {
		for _, iv := range ivs {
			lo := int(iv.Start / dt)
			hi := int(iv.End / dt)
			for b := lo; b <= hi && b < bins; b++ {
				s, e := float64(b)*dt, float64(b+1)*dt
				if iv.Start > s {
					s = iv.Start
				}
				if iv.End < e {
					e = iv.End
				}
				if e > s {
					acc[b] += iv.Power * (e - s)
				}
			}
		}
	}
	addIntervals(busy)
	addIntervals(xfer)
	out := make([]TracePoint, bins)
	for b := range out {
		out[b] = TracePoint{T: float64(b) * dt, V: idleW + acc[b]/dt}
	}
	return out
}

// binOccupancy returns the compute-stream busy fraction per window
// (Fig 9's occupancy trace).
func binOccupancy(busy []runtime.Interval, makespan float64, bins int) []TracePoint {
	if bins <= 0 || makespan <= 0 {
		return nil
	}
	dt := makespan / float64(bins)
	acc := make([]float64, bins)
	for _, iv := range busy {
		lo := int(iv.Start / dt)
		hi := int(iv.End / dt)
		for b := lo; b <= hi && b < bins; b++ {
			s, e := float64(b)*dt, float64(b+1)*dt
			if iv.Start > s {
				s = iv.Start
			}
			if iv.End < e {
				e = iv.End
			}
			if e > s {
				acc[b] += e - s
			}
		}
	}
	out := make([]TracePoint, bins)
	for b := range out {
		v := acc[b] / dt
		if v > 1 {
			v = 1
		}
		out[b] = TracePoint{T: float64(b) * dt, V: v}
	}
	return out
}
