package bench

import (
	"fmt"

	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/runtime"
	"geompc/internal/solver"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// ChaosRow is one line of the resilience ablation: a precision
// configuration run fault-free and again under an identical fault plan,
// with the recovery's time and energy cost made explicit. Comparing the
// overhead columns across configurations answers whether mixed precision
// changes a run's exposure to failures (less data to re-stage, shorter
// replays) or merely shrinks the fault-free baseline.
type ChaosRow struct {
	Config   string
	Scenario string // "fault-free" or "chaos"
	Time     float64
	Energy   float64
	// TimeOverheadPct/EnergyOverheadPct compare a chaos run to its own
	// fault-free baseline; zero on baseline rows.
	TimeOverheadPct   float64
	EnergyOverheadPct float64
	DeviceFailures    int
	ReplayedTasks     int
	RetriedTasks      int
}

// defaultChaosPlan derives a deterministic fault plan scaled to a run's
// fault-free makespan: one device failure mid-run, one transient fault and
// one slow host-link window early on. Scaling by the baseline keeps the
// *relative* injection points identical across configurations whose
// absolute runtimes differ (an FP64 run is much longer than an FP16 one).
func defaultChaosPlan(gpus int, makespan float64) runtime.FaultPlan {
	return runtime.FaultPlan{
		{Kind: runtime.FaultTransient, Device: 0, At: 0.25 * makespan, Backoff: 0.01 * makespan},
		{Kind: runtime.FaultSlow, Device: 0, From: 0.6 * makespan, To: 0.8 * makespan, Factor: 4},
		{Kind: runtime.FaultKill, Device: gpus - 1, At: 0.5 * makespan},
	}
}

// ChaosAblationOpts runs the Fig 8 precision configurations on a single
// node with `gpus` GPUs, fault-free and under a fault plan, in phantom mode.
// When spec is empty each configuration gets defaultChaosPlan scaled to its
// own baseline; otherwise spec is parsed by runtime.ParseFaultSpec and
// applied verbatim (absolute virtual times) to every configuration. The
// sweep executor gets one grid point per precision configuration, each
// producing its fault-free baseline row and its chaos row (the chaos run
// depends on the baseline's makespan, so the pair stays inside one point).
func ChaosAblationOpts(node *hw.NodeSpec, gpus, n, ts int, spec string, so SweepOpts) ([]ChaosRow, error) {
	if gpus < 2 {
		return nil, fmt.Errorf("bench: chaos ablation needs at least 2 GPUs for failover, got %d", gpus)
	}
	plat, err := runtime.NewPlatform(node, 1, gpus)
	if err != nil {
		return nil, err
	}
	direct, err := solver.ByName("direct")
	if err != nil {
		return nil, err
	}
	var fixed runtime.FaultPlan
	if spec != "" {
		fixed, err = runtime.ParseFaultSpec(spec, plat.NumDevices())
		if err != nil {
			return nil, err
		}
	}
	cfgs := ConvConfigs()
	pairs, err := sweep.Run(len(cfgs), so.sweepOptions(), func(i int, ctx *sweep.Context) ([2]ChaosRow, error) {
		cfg := cfgs[i]
		km := func(d tile.Desc) [][]prec.Precision { return cfg.KernelMap(d.NT) }
		free, err := solvePoint(ctx, direct, solver.Config{Platform: plat}, n, ts, km, 1e-2, "chaos baseline "+cfg.Name)
		if err != nil {
			return [2]ChaosRow{}, err
		}
		plan := fixed
		if plan == nil {
			plan = defaultChaosPlan(gpus, free.Stats.Makespan)
		}
		chaos, err := solvePoint(ctx, direct, solver.Config{Platform: plat, Faults: plan, Audit: true},
			n, ts, km, 1e-2, "chaos run "+cfg.Name)
		if err != nil {
			return [2]ChaosRow{}, err
		}
		bt, be := free.Stats.Makespan, free.Stats.Energy
		ct, ce := chaos.Stats.Makespan, chaos.Stats.Energy
		return [2]ChaosRow{
			{Config: cfg.Name, Scenario: "fault-free", Time: bt, Energy: be},
			{
				Config: cfg.Name, Scenario: "chaos", Time: ct, Energy: ce,
				TimeOverheadPct:   100 * (ct - bt) / bt,
				EnergyOverheadPct: 100 * (ce - be) / be,
				DeviceFailures:    chaos.Stats.DeviceFailures,
				ReplayedTasks:     chaos.Stats.ReplayedTasks,
				RetriedTasks:      chaos.Stats.RetriedTasks,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ChaosRow, 0, 2*len(pairs))
	for _, p := range pairs {
		rows = append(rows, p[0], p[1])
	}
	return rows, nil
}
