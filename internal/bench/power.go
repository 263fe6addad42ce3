package bench

import (
	"fmt"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/runtime"
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
	// its full Stats or export a Chrome trace of the run.
	Res *cholesky.Result
}

// EnergyVariants returns Fig 10's per-GPU comparisons: FP64 vs the
// adaptive MP approach for each application.
func EnergyVariants() []Variant {
	return append([]Variant{fp64}, appVariants("MP ")...)
}

// EnergyRunOne executes one traced single-GPU factorization under v (an
// application map samples 128 entries per tile from RNG stream 0 of seed)
// and bins its power and occupancy traces into `bins` windows. audit turns
// on the runtime's invariant auditor for the run.
func EnergyRunOne(node *hw.NodeSpec, v Variant, n, ts, bins int, seed uint64, audit bool) (*EnergyRun, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("bench: energy run needs at least one trace window, got bins=%d", bins)
	}
	plat, err := runtime.NewPlatform(node, 1, 1)
	if err != nil {
		return nil, err
	}
	res, err := RunPhantom(cholesky.Config{Platform: plat, Trace: true, Audit: audit}, n, ts, v.Map(128, seed),
		fmt.Sprintf("energy run %s n=%d", v.Name, n))
	if err != nil {
		return nil, err
	}
	busy, xfer := res.DeviceTrace(0)
	run := &EnergyRun{
		Label:      v.Name,
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
