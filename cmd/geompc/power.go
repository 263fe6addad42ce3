package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"geompc/internal/bench"
	"geompc/internal/hw"
)

// runPower reproduces the energy results: Fig 9 (GPU occupancy over time on
// the H100 for four precision configurations) and Fig 10 (power consumption
// over time, total joules, and Gflops/W for FP64 vs the adaptive
// mixed-precision approach on V100, A100 and H100).
//
//	geompc power -occupancy                  # Fig 9 (H100)
//	geompc power -fig10                      # Fig 10, all three GPUs
//	geompc power -fig10 -machine Summit      # Fig 10, V100 panel only
func runPower(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc power", flag.ContinueOnError)
	occupancy := fs.Bool("occupancy", false, "print Fig 9 occupancy traces (H100)")
	fig10 := fs.Bool("fig10", false, "print Fig 10 power/energy comparison")
	machine := fs.String("machine", "", "restrict Fig 10 to one node type (Summit/Guyot/Haxane)")
	n := fs.Int("n", 0, "matrix size override (default: paper sizing per GPU)")
	ts := fs.Int("ts", 2048, "tile size")
	bins := fs.Int("bins", 40, "trace windows")
	trace := fs.Bool("trace", false, "print the full power trace, not just totals")
	chrome := fs.String("chrome", "", "write the first Fig 10 run's timeline as Chrome trace JSON to this file")
	audit := fs.Bool("audit", false, "run every factorization under the engine's invariant auditor")
	if err := fs.Parse(args); err != nil {
		return err
	}

	allIfNone(occupancy, fig10)

	if *occupancy {
		// Fig 9: H100, largest Fig 8c size.
		size := *n
		if size == 0 {
			size = 81920
		}
		fmt.Fprintf(out, "## Fig 9: GPU occupancy of one H100 (N=%d)\n", size)
		for _, v := range bench.Baselines() {
			run, err := bench.EnergyRunOne(hw.HaxaneNode, v, size, *ts, *bins, 1, *audit)
			if err != nil {
				return err
			}
			var avg float64
			for _, o := range run.Occupancy {
				avg += o.V
			}
			avg /= float64(len(run.Occupancy))
			fmt.Fprintf(out, "%-14s time %7.2fs  mean occupancy %5.1f%%  trace:", v.Name, run.Time, 100*avg)
			for _, o := range run.Occupancy {
				fmt.Fprintf(out, " %2.0f", 100*o.V)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintln(out)
	}

	if *fig10 {
		nodes := []*hw.NodeSpec{hw.SummitNode, hw.GuyotNode, hw.HaxaneNode}
		if *machine != "" {
			nd, err := hw.NodeByName(*machine)
			if err != nil {
				return err
			}
			nodes = []*hw.NodeSpec{nd}
		}
		for _, nd := range nodes {
			// Paper sizing: V100 uses the largest FP64 matrix fitting its
			// memory (61,440); A100/H100 use 122,880 (Haxane host limit).
			size := *n
			if size == 0 {
				if nd.GPU == hw.V100 {
					size = 61440
				} else {
					size = 122880
				}
			}
			t := bench.NewTable(
				fmt.Sprintf("Fig 10: power/energy on one %s (N=%d)", nd.GPU.Name, size),
				"Config", "Time(s)", "Energy(kJ)", "AvgPower(W)", "Gflops/W")
			for _, v := range bench.EnergyVariants() {
				run, err := bench.EnergyRunOne(nd, v, size, *ts, *bins, 1, *audit)
				if err != nil {
					return err
				}
				t.Add(run.Label, run.Time, run.EnergyJ/1e3, run.AvgPower, run.GflopsPerW)
				if *chrome != "" {
					if err := writeChrome(*chrome, run.Res); err != nil {
						return err
					}
					fmt.Fprintf(out, "chrome trace of %s written to %s\n", run.Label, *chrome)
					*chrome = "" // first run only
				}
				if *trace {
					var sb strings.Builder
					for _, p := range run.Power {
						fmt.Fprintf(&sb, " %4.0f", p.V)
					}
					fmt.Fprintf(out, "trace %-14s (W):%s\n", run.Label, sb.String())
				}
			}
			t.Write(out)
			fmt.Fprintf(out, "max TDP on %s: %.0f W\n\n", nd.GPU.Name, nd.GPU.TDP)
		}
	}
	return nil
}
