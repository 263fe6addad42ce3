package bench

import (
	"fmt"

	"geompc/internal/cholesky"
	"geompc/internal/comm"
	"geompc/internal/hw"
	"geompc/internal/obs"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/sched"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// SweepOpts configures how a sweep family executes its grid. The zero
// value is the historical behavior: serial, no metrics. Workers > 0 fans
// the grid over the deterministic sweep executor (internal/sweep) — rows
// stay bit-identical to a serial sweep at any worker count; only the
// wall-clock sweep/* gauges vary.
type SweepOpts struct {
	// Workers is the executor pool size: 0 = serial, n > 0 = n workers,
	// negative = GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives every run's engine metrics merged in
	// grid order plus the sweep/* throughput gauges.
	Metrics *obs.Registry
	// Summary, when non-nil, is filled with the sweep's throughput report.
	Summary *sweep.Summary
}

// sweepOptions translates the bench-level knobs into executor options.
func (o SweepOpts) sweepOptions() sweep.Options {
	return sweep.Options{Workers: o.Workers, Registry: o.Metrics, Summary: o.Summary}
}

// SchedOpts names a scheduling policy and broadcast topology by their CLI
// spellings, plus the sweep-execution knobs. The zero value is the
// engine's historical behavior (FIFO + binomial, serial sweep).
type SchedOpts struct {
	Policy string // sched.ByName: "", "fifo", "locality", "cp"
	Bcast  string // comm.TopologyByName: "", "binomial", "flat", "chain"
	// Solver is the backend the sweep routes solves through (solver.ByName
	// spelling; "" = "direct"). Families that are intrinsically
	// factorization-shaped ignore it.
	Solver string
	SweepOpts
}

// Resolve turns the names into the policy/topology pair (erroring on
// unknown names before any benchmark time is spent).
func (o SchedOpts) Resolve() (sched.Policy, comm.Topology, error) {
	pol, err := sched.ByName(o.Policy)
	if err != nil {
		return nil, nil, err
	}
	topo, err := comm.TopologyByName(o.Bcast)
	if err != nil {
		return nil, nil, err
	}
	return pol, topo, nil
}

// SchedRow is one line of the scheduler ablation: the same workload under a
// different scheduling policy.
type SchedRow struct {
	Policy   string
	N        int
	Time     float64
	Tflops   float64
	Energy   float64
	BytesH2D int64 // host-to-device staging traffic — what Locality cuts
	BytesNet int64
}

// SchedAblation runs the Fig 11 multi-GPU workload (mixed-precision
// FP64/FP16_32 Auto on a full node) under every built-in scheduling policy,
// in phantom mode. The interesting column is BytesH2D: Locality re-places
// consumers onto the device already holding their tiles, so its staging
// traffic must come in strictly below FIFO's.
func SchedAblation(node *hw.NodeSpec, ranks, gpusPerRank int, sizes []int, ts int) ([]SchedRow, error) {
	return SchedAblationOpts(node, ranks, gpusPerRank, sizes, ts, SweepOpts{})
}

// SchedAblationOpts is SchedAblation routed through the sweep executor
// with the given execution knobs (zero value = serial, bit-identical).
func SchedAblationOpts(node *hw.NodeSpec, ranks, gpusPerRank int, sizes []int, ts int, so SweepOpts) ([]SchedRow, error) {
	plat, err := runtime.NewPlatform(node, ranks, gpusPerRank)
	if err != nil {
		return nil, err
	}
	type point struct {
		pol sched.Policy
		n   int
	}
	var pts []point
	for _, pol := range sched.Policies() {
		for _, n := range sizes {
			pts = append(pts, point{pol: pol, n: n})
		}
	}
	return sweep.Run(len(pts), so.sweepOptions(), func(i int, ctx *sweep.Context) (SchedRow, error) {
		p := pts[i]
		pg, qg := tile.SquarestGrid(plat.Ranks)
		desc, err := tile.NewDesc(p.n, ts, pg, qg)
		if err != nil {
			return SchedRow{}, err
		}
		maps := precmap.New(precmap.Uniform(desc.NT, prec.FP16x32), 1e-2)
		res, err := cholesky.Run(cholesky.Config{
			Desc: desc, Maps: maps, Platform: plat, Strategy: cholesky.Auto,
			Sched: p.pol,
		})
		if err != nil {
			return SchedRow{}, fmt.Errorf("bench: sched %s n=%d: %w", p.pol.Name(), p.n, err)
		}
		ctx.Reg.Merge(res.Metrics())
		return SchedRow{
			Policy:   p.pol.Name(),
			N:        p.n,
			Time:     res.Stats.Makespan,
			Tflops:   res.Stats.Flops / 1e12,
			Energy:   res.Stats.Energy,
			BytesH2D: res.Stats.BytesH2D,
			BytesNet: res.Stats.BytesNet,
		}, nil
	})
}

// BcastRow is one line of the broadcast-topology ablation.
type BcastRow struct {
	Topology string
	N        int
	Time     float64
	Energy   float64
	BytesNet int64
}

// BcastAblation runs a multi-rank mixed-precision factorization under every
// built-in broadcast topology, in phantom mode. Bytes on the wire are
// identical by construction; what moves is when receivers get the panel —
// the makespan column shows the cost of each shape.
func BcastAblation(node *hw.NodeSpec, ranks int, sizes []int, ts int) ([]BcastRow, error) {
	return BcastAblationOpts(node, ranks, sizes, ts, SweepOpts{})
}

// BcastAblationOpts is BcastAblation routed through the sweep executor
// with the given execution knobs (zero value = serial, bit-identical).
func BcastAblationOpts(node *hw.NodeSpec, ranks int, sizes []int, ts int, so SweepOpts) ([]BcastRow, error) {
	plat, err := runtime.NewPlatform(node, ranks, 0)
	if err != nil {
		return nil, err
	}
	type point struct {
		topo comm.Topology
		n    int
	}
	var pts []point
	for _, topo := range comm.Topologies() {
		for _, n := range sizes {
			pts = append(pts, point{topo: topo, n: n})
		}
	}
	return sweep.Run(len(pts), so.sweepOptions(), func(i int, ctx *sweep.Context) (BcastRow, error) {
		p := pts[i]
		pg, qg := tile.SquarestGrid(plat.Ranks)
		desc, err := tile.NewDesc(p.n, ts, pg, qg)
		if err != nil {
			return BcastRow{}, err
		}
		maps := precmap.New(precmap.Uniform(desc.NT, prec.FP16x32), 1e-2)
		res, err := cholesky.Run(cholesky.Config{
			Desc: desc, Maps: maps, Platform: plat, Strategy: cholesky.Auto,
			Bcast: p.topo,
		})
		if err != nil {
			return BcastRow{}, fmt.Errorf("bench: bcast %s n=%d: %w", p.topo.Name(), p.n, err)
		}
		ctx.Reg.Merge(res.Metrics())
		return BcastRow{
			Topology: p.topo.Name(),
			N:        p.n,
			Time:     res.Stats.Makespan,
			Energy:   res.Stats.Energy,
			BytesNet: res.Stats.BytesNet,
		}, nil
	})
}
