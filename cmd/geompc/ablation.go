package main

import (
	"flag"
	"fmt"
	"io"

	"geompc/internal/bench"
	"geompc/internal/core"
	"geompc/internal/hw"
	"geompc/internal/mle"
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
func runAblation(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc ablation", flag.ContinueOnError)
	banded := fs.Bool("banded", false, "adaptive vs banded precision maps")
	lookahead := fs.Bool("lookahead", false, "stream pipeline depth sweep")
	probe := fs.Bool("probe", false, "Monte-Carlo arithmetic u_req probe")
	n := fs.Int("n", 65536, "matrix size for -banded/-lookahead")
	probeN := fs.Int("probe-n", 400, "locations for -probe")
	ts := fs.Int("ts", 2048, "tile size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	allIfNone(banded, lookahead, probe)

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
