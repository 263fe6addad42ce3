package main

import (
	"flag"
	"fmt"
	"io"
	"math"

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
//   - the u_req probe (§V) that justifies each application's required
//     accuracy: how far the mixed-precision factorization moves −ℓ(θ) from
//     exact FP64, over independent datasets.
//
//     geompc ablation -banded
//     geompc ablation -lookahead
//     geompc ablation -probe [-probe-n 400]
func runAblation(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc ablation", flag.ContinueOnError)
	banded := fs.Bool("banded", false, "adaptive vs banded precision maps")
	lookahead := fs.Bool("lookahead", false, "stream pipeline depth sweep")
	probe := fs.Bool("probe", false, "u_req probe: mixed-precision vs exact FP64 likelihood")
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
		levels := []float64{0, 1e-9, 1e-6, 1e-4, 1e-2}
		const replicas = 8
		for _, appName := range []string{"2D-sqexp", "2D-Matern"} {
			app, _ := bench.AppByName(appName)
			// nll[r][l] is −ℓ(θ_true) of dataset r factorized at levels[l].
			nll := make([][]float64, replicas)
			for r := range nll {
				ds, err := core.GenerateDataset(*probeN, app.Kernel.Dim(), app.Kernel, app.Theta, uint64(5+r))
				if err != nil {
					return err
				}
				p := &mle.Problem{Locs: ds.Locs, Z: ds.Z, Kernel: ds.Kernel, Nugget: 1e-7, TileSize: 64}
				nll[r] = make([]float64, len(levels))
				for l, u := range levels {
					p.UReq = u
					if nll[r][l], err = p.NegLogLik(app.Theta, nil); err != nil {
						return err
					}
				}
			}
			t := bench.NewTable(
				fmt.Sprintf("u_req probe: %s, n=%d, %d datasets (mixed-precision −ℓ(θ) vs exact FP64)", app.Name, *probeN, replicas),
				"u_req", "mean |Δ(-loglik)|", "max", "rejected")
			for l, u := range levels {
				var sum, worst float64
				rejected := 0
				for r := range nll {
					if math.IsInf(nll[r][l], 1) {
						rejected++
						continue
					}
					d := math.Abs(nll[r][l] - nll[r][0])
					sum += d
					worst = math.Max(worst, d)
				}
				mean, maxDev := "-", "-" // no dataset factorized
				if rejected < replicas {
					mean, maxDev = fmt.Sprintf("%.3g", sum/float64(replicas-rejected)), fmt.Sprintf("%.3g", worst)
				}
				t.Add(ureqLabel(u), mean, maxDev, fmt.Sprintf("%d/%d", rejected, replicas))
			}
			t.Write(out)
		}
	}
	return nil
}
