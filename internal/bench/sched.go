package bench

import (
	"fmt"

	"geompc/internal/cholesky"
	"geompc/internal/comm"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/sched"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// SweepOpts configures how a sweep family executes its grid: the options
// of the deterministic sweep executor (internal/sweep), i.e. the pool width
// (the commands pass sweep.PerCore; 0, one worker, is the reference the
// equivalence tests compare against). Rows are bit-identical at every
// width.
type SweepOpts = sweep.Options

// SchedOpts names a scheduling policy and broadcast topology by their CLI
// spellings, plus the sweep-execution knobs. The zero value is FIFO +
// binomial on a one-worker pool.
type SchedOpts struct {
	Policy string // sched.ByName: "", "fifo", "locality", "cp"
	Bcast  string // comm.TopologyByName: "", "binomial", "flat", "chain"
	SweepOpts
}

// Config resolves the names in o into the run config every point of a
// sweep shares: base with its Sched and Bcast filled in. Unknown names
// error here, before any benchmark time is spent.
func (o SchedOpts) Config(base cholesky.Config) (cholesky.Config, error) {
	var err error
	if base.Sched, err = sched.ByName(o.Policy); err != nil {
		return base, err
	}
	if base.Bcast, err = comm.TopologyByName(o.Bcast); err != nil {
		return base, err
	}
	return base, nil
}

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

// uniformOffDiag is the kernel map of the ablation workloads: FP64 diagonal,
// p everywhere else.
func uniformOffDiag(p prec.Precision) func(tile.Desc) [][]prec.Precision {
	return func(d tile.Desc) [][]prec.Precision { return precmap.Uniform(d.NT, p) }
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
// in phantom mode, through the sweep executor. The interesting column is
// BytesH2D: Locality re-places consumers onto the device already holding
// their tiles, so its staging traffic must come in strictly below FIFO's.
func SchedAblation(node *hw.NodeSpec, ranks, gpusPerRank int, sizes []int, ts int, so SweepOpts) ([]SchedRow, error) {
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
	return sweep.Run(len(pts), so, func(i int) (SchedRow, error) {
		p := pts[i]
		res, err := solvePoint(cholesky.Config{Platform: plat, Sched: p.pol}, p.n, ts, uniformOffDiag(prec.FP16x32), 1e-2,
			fmt.Sprintf("sched %s n=%d", p.pol.Name(), p.n))
		if err != nil {
			return SchedRow{}, err
		}
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

// BcastAblation runs a multi-rank mixed-precision factorization under
// every built-in broadcast topology, in phantom mode, through the sweep
// executor. Bytes on the wire are identical by
// construction; what moves is when receivers get the panel — the makespan
// column shows the cost of each shape.
func BcastAblation(node *hw.NodeSpec, ranks int, sizes []int, ts int, so SweepOpts) ([]BcastRow, error) {
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
	return sweep.Run(len(pts), so, func(i int) (BcastRow, error) {
		p := pts[i]
		res, err := solvePoint(cholesky.Config{Platform: plat, Bcast: p.topo}, p.n, ts, uniformOffDiag(prec.FP16x32), 1e-2,
			fmt.Sprintf("bcast %s n=%d", p.topo.Name(), p.n))
		if err != nil {
			return BcastRow{}, err
		}
		return BcastRow{
			Topology: p.topo.Name(),
			N:        p.n,
			Time:     res.Stats.Makespan,
			Energy:   res.Stats.Energy,
			BytesNet: res.Stats.BytesNet,
		}, nil
	})
}
