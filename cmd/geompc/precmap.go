package main

import (
	"flag"
	"fmt"
	"io"

	"geompc/internal/bench"
	"geompc/internal/prec"
)

// runPrecmap visualizes the precision machinery of §V and §VI:
//
//	geompc precmap -demo   small kernel/storage map example (Fig 2)
//	geompc precmap -comm   the Algorithm 2 communication map (Fig 4)
//	geompc precmap -fig7   tile-precision fractions for the three
//	                       applications at scale (Fig 7)
//
// The Fig 7 defaults are scaled down from the paper's 409,600² matrix; use
// -n 409600 -ts 2048 to regenerate it at full scale (needs a few minutes
// for the sampled norm estimation).
func runPrecmap(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc precmap", flag.ContinueOnError)
	demo := fs.Bool("demo", false, "print a small kernel/storage precision map (Fig 2)")
	comm := fs.Bool("comm", false, "print the Algorithm 2 communication map (Fig 4)")
	fig7 := fs.Bool("fig7", false, "print the per-application precision fractions (Fig 7)")
	n := fs.Int("n", 65536, "matrix size for -fig7 (paper: 409600)")
	ts := fs.Int("ts", 2048, "tile size (paper: 2048)")
	demoN := fs.Int("demo-n", 8192, "matrix size for -demo/-comm")
	demoTS := fs.Int("demo-ts", 1024, "tile size for -demo/-comm")
	samples := fs.Int("samples", 128, "tile-norm samples per tile")
	app := fs.String("app", "2D-Matern", "application for -demo/-comm")
	seed := fs.Uint64("seed", 3, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	allIfNone(demo, comm, fig7)

	if *demo || *comm {
		a, ok := bench.AppByName(*app)
		if !ok {
			return fmt.Errorf("unknown app %q", *app)
		}
		res, err := bench.PrecisionMap(a, *demoN, *demoTS, *samples, *seed)
		if err != nil {
			return err
		}
		if *demo {
			fmt.Fprintf(out, "## Fig 2a: kernel-precision map (%s, N=%d, NT=%d)\n", a.Name, *demoN, res.NT)
			fmt.Fprintln(out, "D=FP64  S=FP32  h=FP16_32  H=FP16")
			fmt.Fprintln(out, bench.RenderKernelMap(res.Maps))
			fmt.Fprintf(out, "## Fig 2b: storage-precision map\n")
			fmt.Fprintln(out, bench.RenderStorageMap(res.Maps))
		}
		if *comm {
			fmt.Fprintf(out, "## Fig 4b: communication-precision map (Algorithm 2); '*' marks STC\n")
			fmt.Fprintln(out, bench.RenderCommMap(res.Maps))
			fmt.Fprintf(out, "STC share of communication-issuing tasks: %.1f%%\n\n", 100*res.STCShare)
		}
	}

	if *fig7 {
		t := bench.NewTable(
			fmt.Sprintf("Fig 7: kernel precision per tile (N=%d, tile %d)", *n, *ts),
			"App", "u_req", "FP64%", "FP32%", "FP16_32%", "FP16%", "STC%")
		for _, a := range bench.Apps() {
			res, err := bench.PrecisionMap(a, *n, *ts, *samples, *seed)
			if err != nil {
				return err
			}
			f := res.Fractions
			t.Add(a.Name, fmt.Sprintf("%.0e", a.UReq),
				100*f[prec.FP64], 100*f[prec.FP32], 100*f[prec.FP16x32], 100*f[prec.FP16],
				100*res.STCShare)
		}
		t.Write(out)
	}
	return nil
}
