package main

import (
	"flag"
	"fmt"
	"io"

	"geompc/internal/bench"
	"geompc/internal/core"
	"geompc/internal/hw"
	"geompc/internal/mle"
	"geompc/internal/sweep"
)

// runAblation quantifies the design choices DESIGN.md calls out:
//
//   - adaptive (Higham–Mary) precision selection vs the band-based
//     assignment of the prior work (refs [12], [13]), at the same
//     tile-wise accuracy guarantee;
//
//   - the engine's stream-pipeline depth (double buffering);
//
//   - the Monte-Carlo arithmetic probe (§V) that justifies each
//     application's required accuracy u_req.
//
//     geompc ablation -banded
//     geompc ablation -lookahead
//     geompc ablation -probe [-probe-n 400]
//     geompc ablation -sched [-sched-ranks 4]    # scheduling policies + broadcast topologies
func runAblation(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc ablation", flag.ContinueOnError)
	banded := fs.Bool("banded", false, "adaptive vs banded precision maps")
	lookahead := fs.Bool("lookahead", false, "stream pipeline depth sweep")
	probe := fs.Bool("probe", false, "Monte-Carlo arithmetic u_req probe")
	schedFlag := fs.Bool("sched", false, "scheduling-policy and broadcast-topology sweep on the Fig 11 workload")
	n := fs.Int("n", 65536, "matrix size for -banded/-lookahead/-sched")
	probeN := fs.Int("probe-n", 400, "locations for -probe")
	ts := fs.Int("ts", 2048, "tile size")
	schedRanks := fs.Int("sched-ranks", 4, "ranks for the -sched broadcast-topology sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sw := bench.SweepOpts{Workers: sweep.PerCore}

	allIfNone(banded, lookahead, probe, schedFlag)

	if *banded {
		for _, app := range bench.Apps() {
			rows, err := bench.AdaptiveVsBanded(app, *n, *ts, hw.SummitNode, 9)
			if err != nil {
				return err
			}
			t := bench.NewTable(
				fmt.Sprintf("adaptive vs banded precision: %s @ u_req=%.0e, N=%d, V100", app.Name, app.UReq, *n),
				"variant", "Tflop/s", "time(s)", "FP64 tiles %")
			for _, r := range rows {
				t.Add(r.Variant, r.Tflops, r.Time, 100*r.FP64Share)
			}
			t.Write(out)
		}
	}

	if *lookahead {
		rows, err := bench.LookaheadAblation(*n, *ts, hw.SummitNode, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		t := bench.NewTable(
			fmt.Sprintf("stream pipeline depth (FP64/FP16, N=%d, V100)", *n),
			"variant", "Tflop/s", "time(s)")
		for _, r := range rows {
			t.Add(r.Variant, r.Tflops, r.Time)
		}
		t.Write(out)
	}

	if *schedFlag {
		rows, err := bench.SchedAblation(hw.SummitNode, 1, 0, []int{*n}, *ts, sw)
		if err != nil {
			return err
		}
		t := bench.NewTable(
			fmt.Sprintf("scheduling policy (FP64/FP16_32 Auto, N=%d, full Summit node)", *n),
			"policy", "time(s)", "Tflop/s", "energy(J)", "H2D", "net")
		for _, r := range rows {
			t.Add(r.Policy, r.Time, r.Tflops, r.Energy,
				bench.HumanBytes(r.BytesH2D), bench.HumanBytes(r.BytesNet))
		}
		t.Write(out)

		brows, err := bench.BcastAblation(hw.SummitNode, *schedRanks, []int{*n}, *ts, sw)
		if err != nil {
			return err
		}
		bt := bench.NewTable(
			fmt.Sprintf("broadcast topology (FP64/FP16_32 Auto, N=%d, %d ranks)", *n, *schedRanks),
			"topology", "time(s)", "energy(J)", "net")
		for _, r := range brows {
			bt.Add(r.Topology, r.Time, r.Energy, bench.HumanBytes(r.BytesNet))
		}
		bt.Write(out)
	}

	if *probe {
		for _, appName := range []string{"2D-sqexp", "2D-Matern"} {
			app, _ := bench.AppByName(appName)
			ds, err := core.GenerateDataset(*probeN, app.Kernel.Dim(), app.Kernel, app.Theta, 5)
			if err != nil {
				return err
			}
			p := &mle.Problem{Locs: ds.Locs, Z: ds.Z, Kernel: ds.Kernel, Nugget: 1e-7, TileSize: 64}
			rows, err := mle.PrecisionImpact(p, app.Theta, []float64{0, 1e-9, 1e-6, 1e-4, 1e-2}, 8, 3)
			if err != nil {
				return err
			}
			t := bench.NewTable(
				fmt.Sprintf("Monte-Carlo arithmetic probe: %s, n=%d (−ℓ reference %.4f)",
					app.Name, *probeN, rows[0].Reference),
				"u_req", "mean |Δ(-loglik)|", "max", "SPD broken")
			for _, r := range rows {
				t.Add(ureqLabel(r.UReq), fmt.Sprintf("%.3g", r.MeanAbsDev), fmt.Sprintf("%.3g", r.MaxAbsDev),
					fmt.Sprintf("%d/%d", r.Broken, r.Replicas))
			}
			t.Write(out)
		}
	}
	return nil
}
