package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go in step, and checks what the manifest's format cannot: that
// every per-layer metric says which end-to-end metric it should move, on
// which workload.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(m.Workloads) != len(workloadInfos) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(workloadInfos))
	}
	workloads := map[string]bool{}
	for i, w := range workloadInfos {
		workloads[w.name] = true
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, benchmark %+v", i, m.Workloads[i], w)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}

	if len(m.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("manifest has %d end-to-end metrics, the benchmark %d", len(m.EndToEnd), len(endToEndMetrics))
	}
	e2e := map[string]bool{}
	for i, d := range endToEndMetrics {
		e2e[d.name] = true
		got := m.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, benchmark %+v", i, got, d)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %q: bad name, unit or bound", d.name)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s is not declared")
	}

	if len(m.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("manifest has %d per-layer metrics, the benchmark %d", len(m.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, d := range perLayerMetrics {
		got := m.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: manifest %+v, benchmark {%s %s %s}", i, got, d.name, d.unit, d.better)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] || e2e[d.name] {
			t.Errorf("per-layer metric %q: bad or repeated name, or bad unit", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("per-layer metric %q: better = %q", d.name, d.better)
		}
		// The prediction: a reason always, and either both a metric and a
		// workload it should move or neither.
		if d.why == "" || (len(d.moves) == 0) != (len(d.on) == 0) {
			t.Errorf("per-layer metric %q does not say what it should move", d.name)
		}
		for _, name := range d.moves {
			if !e2e[name] {
				t.Errorf("per-layer metric %q moves unknown end-to-end metric %q", d.name, name)
			}
		}
		for _, name := range d.on {
			if !workloads[name] {
				t.Errorf("per-layer metric %q names unknown workload %q", d.name, name)
			}
		}
	}
}

// TestSmoke runs all four workloads at toy size, round-robin, with the
// traced pass: every operation must pass its checks (so the traced
// pipelines reproduce the library bit for bit), the run must emit exactly
// the declared metrics, and the layers' self times must add up to the
// traced total.
func TestSmoke(t *testing.T) {
	var jobs []*job
	for _, info := range workloadInfos {
		w, err := newWorkload(info.name, true)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, &job{name: info.name, w: w, tr: newTracer()})
	}
	results, err := runJobs(jobs, 3, 0.25, true, io.Discard, testWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	m := readManifest(t)
	for i, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
		}
		var want []string
		for _, d := range m.PerLayer {
			want = append(want, d.Name)
		}
		if got := metricNames(t, r); !reflect.DeepEqual(got, sorted(want)) {
			t.Errorf("%s: traced run emits %v, manifest declares %v", r.Workload, got, sorted(want))
		}
		r.Trace = false
		want = nil
		for _, d := range m.EndToEnd {
			want = append(want, d.Name)
			if v := r.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, d.Name, v)
			}
		}
		if got := metricNames(t, r); !reflect.DeepEqual(got, sorted(want)) {
			t.Errorf("%s: untraced run emits %v, manifest declares %v", r.Workload, got, sorted(want))
		}

		sum := jobs[i].tr.summarize()
		var layers float64
		for name, l := range sum.layers {
			if !isProbe(name) && !isGlue(name) {
				layers += float64(l.self)
			}
		}
		if share := layers / float64(sum.total); share < 0.95 || share > 1.0001 {
			t.Errorf("%s: layer self times are %.4f of the traced total, want within 5%%", r.Workload, share)
		}
	}
}

// metricNames returns the names on the line the driver reads.
func metricNames(t *testing.T, r runResult) []string {
	t.Helper()
	b, err := json.Marshal(contractLine(r))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, m := range line.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("%s: metric %s lacks a value or a unit", r.Workload, name)
		}
		names = append(names, name)
	}
	return sorted(names)
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the benchmark's driver uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestCompare checks the verdicts of -compare: agreement within the
// bound, a regression beyond it, an unresolved pair when the spread is
// wider than the bound, a changed simulated quantity, and the refusal to
// compare across hosts.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, host fingerprint, walls []float64, energy float64) string {
		s := resultSet{Host: host}
		for i, w := range walls {
			m := map[string]measured{}
			for _, d := range endToEndMetrics {
				m[d.name] = single(1, d.unit)
			}
			m["wall_s"] = single(w, "s")
			m["sim_energy_j"] = single(energy, "J")
			s.Runs = append(s.Runs, runResult{Workload: "fit_sqexp", Seed: uint64(i), Correct: true, Attempted: 1, Metrics: m})
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := hostFingerprint()
	base := set("base.json", host, []float64{1.00, 1.01, 0.99, 1.02}, 5)
	for _, c := range []struct {
		name   string
		path   string
		ok     bool
		expect string
	}{
		{"same", set("same.json", host, []float64{1.01, 1.00, 1.02, 0.99}, 5), true, "a 1.005 [0.9925, 1.0175] (4)  b 1.005 [0.9925, 1.0175] (4)  +0.00%  unchanged"},
		{"slow", set("slow.json", host, []float64{1.41, 1.40, 1.42, 1.39}, 5), false, "regressed"},
		{"noisy", set("noisy.json", host, []float64{0.7, 1.5, 0.8, 1.4}, 5), true, "unresolved"},
		{"model", set("model.json", host, []float64{1.00, 1.01, 0.99, 1.02}, 6), false, "DIFFERS between runs of the same seed"},
	} {
		var out strings.Builder
		ok, err := compareFiles(&out, base, c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", c.name, ok, c.ok, c.expect, out.String())
		}
	}
	other := host
	other.GOMAXPROCS++
	if _, err := compareFiles(io.Discard, base, set("other.json", other, []float64{1}, 5)); err == nil {
		t.Error("comparing results of different hosts did not fail")
	}
}
