package main

import (
	"flag"
	"fmt"
	"io"

	"geompc/internal/bench"
	"geompc/internal/cliflags"
)

// runScale reproduces Fig 12's Summit evaluation: weak scalability (12a),
// strong scalability at fixed matrix size (12b), and the mixed-precision
// effect on 64 nodes / 384 GPUs (12c).
//
//	geompc scale -weak                       # Fig 12a, 1..64 nodes
//	geompc scale -strong                     # Fig 12b, N=798720
//	geompc scale -mp                         # Fig 12c, 64 nodes
//	geompc scale -mp -nodes 8 -sizes 98304,196608   # scaled down
//
// The full 64-node runs simulate ~10⁷ tasks; expect minutes.
func runScale(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc scale", flag.ContinueOnError)
	weak := fs.Bool("weak", false, "run weak scaling (Fig 12a)")
	strong := fs.Bool("strong", false, "run strong scaling (Fig 12b)")
	mp := fs.Bool("mp", false, "run the MP effect at scale (Fig 12c)")
	nodesFlag := fs.String("nodes", "1,4,16,64", "node counts for -weak/-strong")
	mpNodes := fs.Int("mp-nodes", 64, "node count for -mp (paper: 64 = 384 GPUs)")
	baseN := fs.Int("base-n", 98304, "weak-scaling matrix size on the first node count")
	strongN := fs.Int("strong-n", 798720, "strong-scaling matrix size (paper: 798720)")
	sizesFlag := fs.String("sizes", "196608,399360,598016,798720", "matrix sizes for -mp")
	ts := fs.Int("ts", 2048, "tile size")
	v := cliflags.Register(fs, cliflags.Sched)
	if err := fs.Parse(args); err != nil {
		return err
	}
	so := v.SchedOpts()
	allIfNone(weak, strong, mp)

	nodes, err := cliflags.ParseSizes(*nodesFlag)
	if err != nil {
		return err
	}

	if *weak {
		rows, err := bench.WeakScalingOpts(nodes, *baseN, *ts, so)
		if err != nil {
			return err
		}
		t := bench.NewTable("Fig 12a: weak scalability on Summit (FP64)",
			"Nodes", "GPUs", "N", "Tflop/s", "%peak", "Time(s)")
		for _, r := range rows {
			t.Add(r.Nodes, r.GPUs, r.N, r.Tflops, r.PctPeak, r.Time)
		}
		t.Write(out)
	}

	if *strong {
		rows, err := bench.StrongScalingOpts(nodes, *strongN, *ts, so)
		if err != nil {
			return err
		}
		t := bench.NewTable(fmt.Sprintf("Fig 12b: strong scalability on Summit (FP64, N=%d)", *strongN),
			"Nodes", "GPUs", "Tflop/s", "%peak", "Time(s)")
		for _, r := range rows {
			t.Add(r.Nodes, r.GPUs, r.Tflops, r.PctPeak, r.Time)
		}
		t.Write(out)
	}

	if *mp {
		sizes, err := cliflags.ParseSizes(*sizesFlag)
		if err != nil {
			return err
		}
		rows, err := bench.MPEffect(*mpNodes, sizes, *ts, so.SweepOpts)
		if err != nil {
			return err
		}
		t := bench.NewTable(fmt.Sprintf("Fig 12c: MP effect on %d nodes (%d GPUs)", *mpNodes, *mpNodes*6),
			"Config", "N", "Tflop/s", "Speedup vs FP64", "Time(s)")
		for _, r := range rows {
			t.Add(r.Config, r.N, r.Tflops, r.Speedup, r.Time)
		}
		t.Write(out)
	}
	return nil
}
