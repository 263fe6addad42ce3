package bench

import (
	"fmt"
	"math"

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
	cfg := cholesky.Config{Platform: plat, Options: runtime.Options{Trace: true, Audit: audit}}
	res, err := cholesky.RunPhantom(cfg, n, ts, v.Map(128, seed))
	if err != nil {
		return nil, err
	}
	st, d := res.Stats, res.Stats.Trace.Devices[0]
	watts := func(iv runtime.Interval) float64 { return iv.Power }
	busy := func(runtime.Interval) float64 { return 1 }
	return &EnergyRun{
		Label:      v.Name,
		N:          n,
		Time:       st.Makespan,
		EnergyJ:    st.Energy,
		AvgPower:   st.AvgPower,
		GflopsPerW: st.TotalFlops / 1e9 / st.Energy,
		// Power: idle draw plus the dynamic power of compute and transfer
		// activity. Occupancy: the compute stream's busy fraction.
		Power:     binTrace([][]runtime.Interval{d.Kernel, d.Convert, d.H2D, d.D2H}, watts, node.GPU.IdleW, math.Inf(1), st.Makespan, bins),
		Occupancy: binTrace([][]runtime.Interval{d.Kernel, d.Convert}, busy, 0, 1, st.Makespan, bins),
		Res:       res,
	}, nil
}

// binTrace averages traced activity over `bins` equal windows of
// [0, makespan): window b reads floor plus the weight-per-second of every
// interval overlapping it, capped at ceil. The lists are summed in order;
// nil when there is no window.
func binTrace(lists [][]runtime.Interval, weight func(runtime.Interval) float64, floor, ceil, makespan float64, bins int) []TracePoint {
	if bins <= 0 || makespan <= 0 {
		return nil
	}
	dt := makespan / float64(bins)
	acc := make([]float64, bins)
	for _, ivs := range lists {
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
					acc[b] += weight(iv) * (e - s)
				}
			}
		}
	}
	out := make([]TracePoint, bins)
	for b := range out {
		v := floor + acc[b]/dt
		if v > ceil {
			v = ceil
		}
		out[b] = TracePoint{T: float64(b) * dt, V: v}
	}
	return out
}
