// Command benchjson turns `go test -bench` text output into the committed
// BENCH_kernels.json artifact: one record per benchmark with ns/op, B/op and
// allocs/op, optionally joined against a baseline run (-seed) to report
// before/after speedups and allocation ratios.
//
// Usage:
//
//	go test -bench ... -benchmem | benchjson -seed results/bench_seed.txt > BENCH_kernels.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// measurement is one benchmark result line.
type measurement struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
	// Gomaxprocs is the -N suffix go test appends to the benchmark name
	// (go test omits it when GOMAXPROCS is 1). Parallel-sweep series are
	// meaningless without it: 126 points/sec at one core and at eight are
	// different results.
	Gomaxprocs int `json:"gomaxprocs"`
}

// record joins the current run with the baseline for one benchmark.
type record struct {
	Name    string       `json:"name"`
	Before  *measurement `json:"before,omitempty"`
	After   measurement  `json:"after"`
	Speedup float64      `json:"speedup,omitempty"`      // before.ns / after.ns
	AllocsX float64      `json:"allocs_ratio,omitempty"` // before.allocs / after.allocs
}

type report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Seed       string   `json:"seed,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	seedPath := fs.String("seed", "", "baseline `file` of go test -bench output (the before numbers)")
	allowMissing := fs.Bool("allow-missing", false, "tolerate seed benchmarks absent from the current run instead of failing")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var seed map[string]measurement
	if *seedPath != "" {
		f, err := os.Open(*seedPath)
		if err != nil {
			return err
		}
		seed, _, err = parseBench(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	after, meta, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(after) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}

	// A seed series missing from the current run would silently vanish from
	// the artifact — the series' history would end without a trace. Fail
	// loudly instead (new benchmarks absent from the seed are fine: they
	// start a series).
	var missing []string
	for _, name := range sortedKeys(seed) {
		if _, ok := after[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 && !*allowMissing {
		return fmt.Errorf("seed benchmark(s) missing from this run: %s (renamed or not run? pass -allow-missing to drop the series deliberately)",
			strings.Join(missing, ", "))
	}

	rep := report{Goos: meta["goos"], Goarch: meta["goarch"], CPU: meta["cpu"], Seed: *seedPath}
	for _, name := range sortedKeys(after) {
		r := record{Name: name, After: after[name]}
		if b, ok := seed[name]; ok {
			before := b
			r.Before = &before
			if r.After.NsOp > 0 {
				r.Speedup = round2(before.NsOp / r.After.NsOp)
			}
			if r.After.AllocsOp > 0 {
				r.AllocsX = round2(float64(before.AllocsOp) / float64(r.After.AllocsOp))
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parseBench extracts benchmark lines and header metadata (goos/goarch/cpu)
// from go test -bench output. Benchmark names are normalized by stripping
// the trailing -GOMAXPROCS suffix so -cpu settings don't break the join.
// Two lines that map to one name are an error, not a silent merge: a
// repeated line, the same benchmark at two -cpu values, or a sub-benchmark
// whose own name ends in -<digits> beside one without it.
func parseBench(r io.Reader) (map[string]measurement, map[string]string, error) {
	out := make(map[string]measurement)
	line0 := make(map[string]string) // the line each name was read from
	meta := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				meta[key] = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name, procs := splitCPUSuffix(fields[0])
		var m measurement
		m.Gomaxprocs = procs
		// fields[1] is the iteration count; after that, (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp = v
			case "B/op":
				m.BOp = int64(v)
			case "allocs/op":
				m.AllocsOp = int64(v)
			}
		}
		if m.NsOp > 0 {
			if first, dup := line0[name]; dup {
				return nil, nil, fmt.Errorf("benchmarks %s and %s both map to %s (GOMAXPROCS %d and %d)",
					first, fields[0], name, out[name].Gomaxprocs, procs)
			}
			out[name], line0[name] = m, fields[0]
		}
	}
	return out, meta, sc.Err()
}

// splitCPUSuffix drops a trailing -N GOMAXPROCS marker (Benchmark/sub-8)
// and returns its value, defaulting to 1 when absent — go test only prints
// the suffix when GOMAXPROCS differs from 1.
func splitCPUSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}

func sortedKeys(m map[string]measurement) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}
