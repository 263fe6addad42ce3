package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"geompc/internal/cholesky"
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
//	geompc trace -audit -metrics            # audited run + run statistics
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc trace", flag.ContinueOnError)
	nt := fs.Int("nt", 4, "tiles per dimension")
	ts := fs.Int("ts", 2048, "tile size")
	gpus := fs.Int("gpus", 2, "GPUs on one Summit node")
	iters := fs.Int("iters", 2, "print tasks of the first k iterations (0 = all)")
	chrome := fs.String("chrome", "", "write the timeline as Chrome trace-event JSON to this file")
	audit := fs.Bool("audit", false, "run the engine's invariant auditor; violations are fatal")
	metrics := fs.Bool("metrics", false, "print the run's statistics (bytes per link × precision, LRU, per device) after the schedule")
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
	res, err := cholesky.Run(cholesky.Config{
		Desc: d, Maps: precmap.New(precmap.Uniform(*nt, prec.FP16x32), 1e-4),
		Platform: plat, Trace: true, Audit: *audit,
	})
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
		writeStats(out, res.Stats)
	}
	return nil
}

// writeStats prints a run's runtime.Stats as aligned "name value" lines:
// the run totals, the nonzero bytes of every link × precision, the LRU
// totals, and each device's busy time and peak residency.
func writeStats(out io.Writer, st runtime.Stats) {
	line := func(name, format string, a ...any) {
		fmt.Fprintf(out, "%-26s "+format+"\n", append([]any{name}, a...)...)
	}
	fmt.Fprintln(out, "\nmetrics:")
	line("tasks", "%d", st.Tasks)
	line("conversions stc/ttc", "%d/%d", st.SenderConversions, st.ReceiverConversions)
	line("makespan", "%g s", st.Makespan)
	line("energy", "%g J", st.Energy)
	for _, link := range []struct {
		name   string
		byPrec [prec.Count]int64
	}{{"h2d", st.H2DByPrec}, {"d2h", st.D2HByPrec}, {"net", st.NetByPrec}} {
		for p, b := range link.byPrec {
			if b != 0 {
				line("bytes "+link.name+" "+prec.Precision(p).String(), "%d", b)
			}
		}
	}
	var hits, misses int64
	var evictions, writebacks int
	for _, d := range st.Devices {
		hits, misses = hits+d.LRUHits, misses+d.LRUMisses
		evictions, writebacks = evictions+d.Evictions, writebacks+d.Writebacks
	}
	line("lru hits/misses", "%d/%d", hits, misses)
	line("lru evictions/writebacks", "%d/%d", evictions, writebacks)
	for i, d := range st.Devices {
		line(fmt.Sprintf("dev%d busy", i), "%g s", d.BusyTime)
		line(fmt.Sprintf("dev%d peak resident", i), "%d B", d.PeakResident)
	}
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
