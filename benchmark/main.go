// Command benchmark is the repository's end-to-end benchmark: four named
// workloads, the metrics a user of the library sees, and — in a separate
// traced pass — per-layer numbers measured from outside, around the calls
// into each layer's public functions. BENCHMARK.json at the repository
// root declares the command, the workloads and the metrics; README.md in
// this directory says why each was chosen and what it predicts.
//
//	go run ./benchmark -seed 7                          # all workloads, round-robin
//	go run ./benchmark -workload fit_matern -trace 1    # one workload, with the traced pass
//	go run ./benchmark -workload fit_sqexp -out a.json  # append the run to a result set
//	go run ./benchmark -compare a.json b.json           # compare two result sets
//
// The last line of standard output is one JSON object per workload run:
// correct, attempted, failed and the metrics (end-to-end ones, or with
// -trace 1 the per-layer ones). The exit code is non-zero when any
// operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "fit_matern, fit_sqexp, project_scale, mc_matern, or all (round-robin)")
	seed := fs.Uint64("seed", 1, "every input is made from this seed")
	seconds := fs.Float64("seconds", 20, "seconds of operations to measure per workload")
	trace := fs.Int("trace", 0, "1 alternates untraced and traced operations and reports the per-layer metrics")
	out := fs.String("out", "", "result-set file to append this run to (created if missing)")
	compare := fs.Bool("compare", false, "compare two result-set files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		ok, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload W] [-seed S] [-seconds T] [-trace 0|1] [-out FILE]")
		return 2
	}

	var jobs []*job
	for _, info := range workloadInfos {
		if *name != "all" && *name != info.name {
			continue
		}
		w, err := newWorkload(info.name, false)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		jobs = append(jobs, &job{name: info.name, w: w, tr: newTracer()})
	}
	if len(jobs) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	results, err := runJobs(jobs, *seed, *seconds, *trace == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *out != "" {
		if err := appendRuns(*out, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	code := 0
	for _, r := range results {
		if !r.Correct {
			code = 1
		}
		if err := json.NewEncoder(stdout).Encode(contractLine(r)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}

// runJobs measures the jobs and prints each one's report.
func runJobs(jobs []*job, seed uint64, seconds float64, trace bool, stdout, stderr io.Writer) ([]runResult, error) {
	fmt.Fprintf(stdout, "host: %+v\n", hostFingerprint())
	if err := measure(jobs, seed, seconds, trace); err != nil {
		return nil, err
	}
	var results []runResult
	for _, j := range jobs {
		r := j.result(seed, seconds, trace, stderr)
		results = append(results, r)
		tr := j.tr
		if !trace {
			tr = nil
		}
		printReport(stdout, r, tr)
	}
	return results, nil
}

// contractLine is the object the benchmark's driver reads: with tracing
// off every end-to-end metric BENCHMARK.json declares, with tracing on
// every per-layer one.
func contractLine(r runResult) map[string]any {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	add := func(name string) {
		m := r.Metrics[name]
		metrics[name] = valueUnit{m.Value, m.Unit}
	}
	if r.Trace {
		for _, d := range perLayerMetrics {
			add(d.name)
		}
	} else {
		for _, d := range endToEndMetrics {
			add(d.name)
		}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}
