package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"geompc/internal/cholesky"
	"geompc/internal/cliflags"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// runTrace prints the simulated execution timeline of a small mixed-
// precision Cholesky — the Fig 3 demonstration: which task class runs
// where and when, and how the asynchronous runtime overlaps iterations.
//
//	geompc trace -nt 4 -gpus 2
//	geompc trace -nt 8 -chrome out.json     # export a Chrome/Perfetto trace
//	geompc trace -audit -metrics            # audited run + metrics dump
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc trace", flag.ContinueOnError)
	nt := fs.Int("nt", 4, "tiles per dimension")
	ts := fs.Int("ts", 2048, "tile size")
	gpus := fs.Int("gpus", 2, "GPUs on one Summit node")
	iters := fs.Int("iters", 2, "print tasks of the first k iterations (0 = all)")
	chrome := fs.String("chrome", "", "write the timeline as Chrome trace-event JSON to this file")
	audit := fs.Bool("audit", false, "run the engine's invariant auditor; violations are fatal")
	metrics := fs.Bool("metrics", false, "dump the run's metrics registry after the schedule")
	v := cliflags.Register(fs, cliflags.Sched)
	if err := fs.Parse(args); err != nil {
		return err
	}
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, *gpus)
	if err != nil {
		return err
	}
	d, err := tile.NewDesc(*nt**ts, *ts, 1, 1)
	if err != nil {
		return err
	}
	cfg, err := v.SchedOpts().Config(cholesky.Config{
		Desc: d, Maps: precmap.New(precmap.Uniform(*nt, prec.FP16x32), 1e-4),
		Platform: plat, Trace: true, Audit: *audit,
	})
	if err != nil {
		return err
	}

	res, err := cholesky.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "simulated schedule, NT=%d, %d V100s (FP64 diagonal / FP16_32 off-diagonal):\n\n", *nt, plat.DevPerRank)
	makespan := res.Stats.Makespan
	for _, t := range res.Schedule() {
		if *iters > 0 && !inFirstIters(t.Name, *iters) {
			continue
		}
		barLen := 48
		s := int(t.Start / makespan * float64(barLen))
		e := int(t.End / makespan * float64(barLen))
		if e <= s {
			e = s + 1
		}
		bar := strings.Repeat(" ", s) + strings.Repeat("#", e-s) + strings.Repeat(" ", barLen-e)
		fmt.Fprintf(out, "dev%-2d |%s| %8.3f→%-8.3f ms  %s\n", t.Device, bar, t.Start*1e3, t.End*1e3, t.Name)
	}
	fmt.Fprintf(out, "\nmakespan %.3f ms, %d tasks, %.1f Tflop/s, schedule digest %016x\n",
		makespan*1e3, res.Stats.Tasks, res.Stats.Flops/1e12, res.Stats.ScheduleDigest)

	if *chrome != "" {
		if err := writeChrome(*chrome, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "chrome trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n", *chrome)
	}
	if *metrics {
		fmt.Fprintln(out, "\nmetrics:")
		if _, err := res.Metrics().WriteTo(out); err != nil {
			return err
		}
	}
	return nil
}

// inFirstIters reports whether a task label belongs to iteration < k: the
// trailing coordinate of a factorization task (Algorithm 1's iteration).
func inFirstIters(name string, k int) bool {
	i := strings.LastIndexAny(name, ",(")
	if i < 0 {
		return true
	}
	var kk int
	fmt.Sscanf(name[i+1:], "%d", &kk)
	return kk < k
}
