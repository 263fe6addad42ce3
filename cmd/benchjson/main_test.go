package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

const benchOutput = `goos: linux
goarch: amd64
cpu: test
BenchmarkGemm/fp64-8    100    12345 ns/op    64 B/op    2 allocs/op
BenchmarkGemm/fp16-8    400     3000 ns/op    64 B/op    2 allocs/op
PASS
`

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(benchOutput), &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || len(rep.Benchmarks) != 2 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Benchmarks[0].Name != "BenchmarkGemm/fp16" {
		t.Errorf("CPU suffix not stripped / not sorted: %q", rep.Benchmarks[0].Name)
	}
}

// TestGomaxprocsRecorded: each measurement carries the GOMAXPROCS it ran
// with, parsed from the -N name suffix (1 when the suffix is absent). The
// SweepParallel* series are uninterpretable without it.
func TestGomaxprocsRecorded(t *testing.T) {
	in := benchOutput + "BenchmarkSweepSerial  10  500 ns/op  0 B/op  0 allocs/op\n" +
		"BenchmarkSweepW4-4  10  200 ns/op  0 B/op  0 allocs/op\n"
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"BenchmarkGemm/fp64":   8,
		"BenchmarkGemm/fp16":   8,
		"BenchmarkSweepSerial": 1,
		"BenchmarkSweepW4":     4,
	}
	for _, b := range rep.Benchmarks {
		if got := b.After.Gomaxprocs; got != want[b.Name] {
			t.Errorf("%s: gomaxprocs = %d, want %d", b.Name, got, want[b.Name])
		}
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
}

func TestRunEmptyInput(t *testing.T) {
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("empty bench input must fail")
	}
}

// TestSeedSeriesMissingFailsLoudly: a benchmark present in the seed but
// absent from the current run used to vanish silently from the artifact;
// now it is an error unless -allow-missing is passed.
func TestSeedSeriesMissingFailsLoudly(t *testing.T) {
	seed := t.TempDir() + "/seed.txt"
	if err := writeFile(seed, benchOutput+"BenchmarkGone-8  10  999 ns/op  0 B/op  0 allocs/op\n"); err != nil {
		t.Fatal(err)
	}

	err := run([]string{"-seed", seed}, strings.NewReader(benchOutput), &bytes.Buffer{})
	if err == nil {
		t.Fatal("missing seed series must fail")
	}
	if !strings.Contains(err.Error(), "BenchmarkGone") {
		t.Fatalf("error does not name the missing series: %v", err)
	}

	// The override keeps the old drop-the-series behavior, deliberately.
	var out bytes.Buffer
	if err := run([]string{"-seed", seed, "-allow-missing"}, strings.NewReader(benchOutput), &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		if b.Name == "BenchmarkGone" {
			t.Fatal("-allow-missing must drop the series, not resurrect it")
		}
	}
}

// TestNewBenchmarkStartsSeries: benchmarks absent from the seed join the
// artifact without before/speedup fields and without erroring — how a new
// series enters BENCH_kernels.json.
func TestNewBenchmarkStartsSeries(t *testing.T) {
	seed := t.TempDir() + "/seed.txt"
	if err := writeFile(seed, benchOutput); err != nil {
		t.Fatal(err)
	}
	in := benchOutput + "BenchmarkNewSeries-8  10  500 ns/op  0 B/op  0 allocs/op\n"
	var out bytes.Buffer
	if err := run([]string{"-seed", seed}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range rep.Benchmarks {
		if b.Name == "BenchmarkNewSeries" {
			found = true
			if b.Before != nil || b.Speedup != 0 {
				t.Fatalf("new series must have no baseline: %+v", b)
			}
		}
	}
	if !found {
		t.Fatal("new benchmark missing from the report")
	}
}

// TestNameCollisionFails: two lines that map to one record — a sub-benchmark
// named like a GOMAXPROCS suffix beside its namesake, or the same benchmark
// twice — fail the run instead of one silently replacing the other, in the
// current run and in the seed.
func TestNameCollisionFails(t *testing.T) {
	for _, lines := range []string{
		"BenchmarkTrsm64/FP64  10  900 ns/op\nBenchmarkTrsm64/FP64-49  10  500 ns/op\n",
		"BenchmarkTrsm64/FP64-4  10  900 ns/op\nBenchmarkTrsm64/FP64-4  10  500 ns/op\n",
	} {
		var out bytes.Buffer
		err := run(nil, strings.NewReader(lines), &out)
		if err == nil || !strings.Contains(err.Error(), "both map to BenchmarkTrsm64/FP64") {
			t.Errorf("input %q: err = %v, want a name collision", lines, err)
		}
		seed := t.TempDir() + "/seed.txt"
		if err := writeFile(seed, lines); err != nil {
			t.Fatal(err)
		}
		err = run([]string{"-seed", seed}, strings.NewReader(benchOutput), &out)
		if err == nil || !strings.Contains(err.Error(), "both map to BenchmarkTrsm64/FP64") {
			t.Errorf("seed %q: err = %v, want a name collision", lines, err)
		}
	}
}
