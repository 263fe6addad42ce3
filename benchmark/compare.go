package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// resultSet is the content of an -out file: runs of one commit on one
// host. A set is grown one process at a time, each run with another seed,
// which is how the benchmark's driver samples too.
type resultSet struct {
	Host fingerprint `json:"host"`
	Runs []runResult `json:"runs"`
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// appendRuns adds runs to the set in path, refusing a set measured on
// another host.
func appendRuns(path string, runs []runResult) error {
	set, err := readSet(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		set.Host = hostFingerprint()
	case err != nil:
		return err
	case set.Host != hostFingerprint():
		return fmt.Errorf("%s was measured on %+v, this host is %+v", path, set.Host, hostFingerprint())
	}
	set.Runs = append(set.Runs, runs...)
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians, quartiles and sample counts over their untraced runs, and a
// verdict. It reports false when a metric regressed beyond its bound or a
// deterministic quantity differs.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	if a.Host != b.Host {
		return false, fmt.Errorf("host fingerprints differ, the sets are not comparable:\n  %s: %+v\n  %s: %+v", pathA, a.Host, pathB, b.Host)
	}
	fmt.Fprintf(w, "host: %+v\na = %s, b = %s; medians over runs [q1, q3] (n runs)\n", a.Host, pathA, pathB)
	ok := true
	for _, info := range workloadInfos {
		ra, rb := untraced(a, info.name), untraced(b, info.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", info.name)
		for _, d := range endToEndMetrics {
			va, vb := values(ra, d.name), values(rb, d.name)
			verdict := judge(va, vb, d)
			if verdict == "regressed" {
				ok = false
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(w, "  %-16s a %.6g [%.6g, %.6g] (%d)  b %.6g [%.6g, %.6g] (%d)  %+.2f%%  %s\n",
				d.name, a2, a1, a3, len(va), b2, b1, b3, len(vb), 100*(b2-a2)/a2, verdict)
		}
		// Simulated quantities and failures are deterministic given the
		// seed: runs of the same seed must agree exactly.
		for _, name := range []string{"sim_makespan_s", "sim_energy_j", "sim_bytes_moved", "fail_frac"} {
			same, compared := true, 0
			for _, x := range ra {
				for _, y := range rb {
					if x.Seed == y.Seed {
						compared++
						if math.Float64bits(x.Metrics[name].Value) != math.Float64bits(y.Metrics[name].Value) {
							same = false
						}
					}
				}
			}
			switch {
			case compared == 0:
				fmt.Fprintf(w, "  %-16s no seed in common\n", name)
			case same:
				fmt.Fprintf(w, "  %-16s identical on %d same-seed pairs\n", name, compared)
			default:
				fmt.Fprintf(w, "  %-16s DIFFERS between runs of the same seed\n", name)
				ok = false
			}
		}
	}
	return ok, nil
}

func untraced(s resultSet, workload string) []runResult {
	var out []runResult
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []runResult, metric string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[metric].Value
	}
	return v
}

// judge compares two samples of one metric against its bound. When either
// sample's own run-to-run spread (interquartile range over median) exceeds
// the bound the medians cannot resolve a difference of that size, and the
// pair is unresolved — unless every run of one side beats every run of the
// other.
func judge(a, b []float64, d endToEnd) string {
	if d.better == "higher" { // negate, so that larger is worse from here on
		a, b = negated(a), negated(b)
	}
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	worse := (b2 - a2) / math.Abs(a2)
	if (a3-a1)/math.Abs(a2) > d.bound || (b3-b1)/math.Abs(b2) > d.bound {
		minA, maxA := extremes(a)
		minB, maxB := extremes(b)
		switch {
		case minB > maxA && worse > d.bound:
			return "regressed"
		case maxB < minA:
			return "improved"
		}
		return "unresolved"
	}
	switch {
	case worse > d.bound:
		return "regressed"
	case worse < -d.bound:
		return "improved"
	}
	return "unchanged"
}

func negated(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = -x
	}
	return out
}

func extremes(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
