package main

import (
	"flag"
	"fmt"
	"io"

	"geompc/internal/bench"
	"geompc/internal/hw"
	"geompc/internal/runtime"
	"geompc/internal/sweep"
)

// runConvbench reproduces the automated precision conversion study: Fig 8
// (STC vs TTC on one V100/A100/H100 GPU) and Fig 11 (one full Summit or
// Guyot node), reporting achieved Tflop/s, efficiency against the
// configuration's dominant-precision peak, and data motion.
//
//	geompc convbench -gpus 1 -machine Summit     # Fig 8a
//	geompc convbench -gpus 1 -machine Guyot      # Fig 8b
//	geompc convbench -gpus 1 -machine Haxane     # Fig 8c
//	geompc convbench -node -machine Summit       # Fig 11a (6×V100)
//	geompc convbench -node -machine Guyot        # Fig 11b (8×A100)
func runConvbench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc convbench", flag.ContinueOnError)
	machine := fs.String("machine", "Summit", "node type: Summit (V100), Guyot (A100), Haxane (H100)")
	gpus := fs.Int("gpus", 1, "GPUs to use (ignored with -node)")
	node := fs.Bool("node", false, "use every GPU of the node (Fig 11)")
	sizesFlag := fs.String("sizes", "", "comma-separated matrix sizes (default: per-machine sweep)")
	ts := fs.Int("ts", 2048, "tile size")
	if err := fs.Parse(args); err != nil {
		return err
	}

	nd, err := hw.NodeByName(*machine)
	if err != nil {
		return err
	}
	g := *gpus
	if *node {
		g = nd.GPUs
	}
	// The heading and the size list follow the platform the sweep builds:
	// -gpus 0 is the whole node.
	plat, err := runtime.NewPlatform(nd, 1, g)
	if err != nil {
		return err
	}
	g = plat.DevPerRank

	sizes := []int{16384, 32768, 49152, 65536, 81920, 98304, 122880}
	if g > 1 {
		sizes = append(sizes, 163840, 196608)
	}
	if *sizesFlag != "" {
		if sizes, err = parseSizes(*sizesFlag); err != nil {
			return err
		}
	}

	rows, err := bench.ConvSweepOpts(nd, 1, g, sizes, *ts, "", bench.SchedOpts{SweepOpts: bench.SweepOpts{Workers: sweep.PerCore}})
	if err != nil {
		return err
	}
	fig := "Fig 8"
	if g > 1 {
		fig = "Fig 11"
	}
	t := bench.NewTable(
		fmt.Sprintf("%s: STC vs TTC on %d×%s (%s)", fig, g, nd.GPU.Name, nd.Name),
		"Config", "Strategy", "N", "Tflop/s", "%peak", "Time(s)", "H2D")
	for _, r := range rows {
		t.Add(r.Config, r.Strategy, r.N, r.Tflops, r.PctPeak, r.Time, bench.HumanBytes(r.BytesH2D))
	}
	t.Write(out)

	// Summarize STC/TTC speedups per config at the largest size.
	last := sizes[len(sizes)-1]
	speed := map[string]map[string]float64{}
	for _, r := range rows {
		if r.N != last {
			continue
		}
		if speed[r.Config] == nil {
			speed[r.Config] = map[string]float64{}
		}
		speed[r.Config][r.Strategy] = r.Tflops
	}
	st := bench.NewTable(fmt.Sprintf("STC/TTC speedup at N=%d", last), "Config", "Speedup")
	for _, v := range bench.Baselines() {
		m := speed[v.Name]
		if m == nil || m["TTC"] == 0 {
			continue
		}
		st.Add(v.Name, m["STC"]/m["TTC"])
	}
	st.Write(out)
	return nil
}
