package bench

// Pool-width equivalence for every sweep family: the deterministic
// executor must return row-for-row identical results (struct equality,
// schedule digests included) at every worker count, and the merged engine
// metrics must match the one-worker merge bit for bit. "Serial" in the
// names below is that one-worker reference (Workers: 0).

import (
	"runtime"
	"strings"
	"testing"

	"geompc/internal/hw"
	"geompc/internal/obs"
)

// edgeWorkers is the worker-count edge table every family is checked
// against: the zero value, single worker, the machine's parallelism, and
// a pool larger than any grid in this file.
func edgeWorkers() []int {
	return []int{0, 1, runtime.NumCPU(), 64}
}

func sameRows[T comparable](t *testing.T, family string, workers int, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s workers=%d: %d rows, serial has %d", family, workers, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s workers=%d row %d:\n  got  %+v\n  want %+v", family, workers, i, got[i], want[i])
		}
	}
}

func TestConvSweepParallelMatchesSerial(t *testing.T) {
	sizes := []int{8192, 16384}
	const ts = 2048
	want, err := ConvSweepOpts(hw.SummitNode, 1, 2, sizes, ts, "", SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range edgeWorkers() {
		got, err := ConvSweepOpts(hw.SummitNode, 1, 2, sizes, ts, "",
			SchedOpts{SweepOpts: SweepOpts{Workers: w}})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameRows(t, "ConvSweep", w, got, want)
	}

	// Under a non-default policy/topology the grid must still be
	// order-independent.
	placed, err := ConvSweepOpts(hw.SummitNode, 1, 2, sizes, ts, "",
		SchedOpts{Policy: "locality", Bcast: "flat"})
	if err != nil {
		t.Fatal(err)
	}
	gotPlaced, err := ConvSweepOpts(hw.SummitNode, 1, 2, sizes, ts, "",
		SchedOpts{Policy: "locality", Bcast: "flat", SweepOpts: SweepOpts{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "ConvSweep/locality+flat", 4, gotPlaced, placed)
}

func TestScalingParallelMatchesSerial(t *testing.T) {
	nodes := []int{1, 2, 4}
	const baseN, ts = 8192, 2048
	wantWeak, err := WeakScalingOpts(nodes, baseN, ts, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantStrong, err := StrongScalingOpts(nodes, baseN, ts, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range edgeWorkers() {
		so := SchedOpts{SweepOpts: SweepOpts{Workers: w}}
		gotWeak, err := WeakScalingOpts(nodes, baseN, ts, so)
		if err != nil {
			t.Fatalf("weak workers=%d: %v", w, err)
		}
		sameRows(t, "WeakScaling", w, gotWeak, wantWeak)
		gotStrong, err := StrongScalingOpts(nodes, baseN, ts, so)
		if err != nil {
			t.Fatalf("strong workers=%d: %v", w, err)
		}
		sameRows(t, "StrongScaling", w, gotStrong, wantStrong)
	}

	// Fig 12c: the Speedup column is derived after the sweep returns, so it
	// too is independent of the pool width.
	wantMP, err := MPEffect(2, []int{8192, 16384}, ts, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		gotMP, err := MPEffect(2, []int{8192, 16384}, ts, SweepOpts{Workers: w})
		if err != nil {
			t.Fatalf("mp workers=%d: %v", w, err)
		}
		sameRows(t, "MPEffect", w, gotMP, wantMP)
	}
	for _, r := range wantMP {
		if r.Speedup <= 0 {
			t.Errorf("MPEffect row %+v has no speedup", r)
		}
	}
}

func TestSchedAblationParallelMatchesSerial(t *testing.T) {
	sizes := []int{8192}
	const ts = 2048
	want, err := SchedAblationOpts(hw.SummitNode, 1, 0, sizes, ts, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range edgeWorkers() {
		got, err := SchedAblationOpts(hw.SummitNode, 1, 0, sizes, ts, SweepOpts{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameRows(t, "SchedAblation", w, got, want)
	}
}

func TestBcastAblationParallelMatchesSerial(t *testing.T) {
	sizes := []int{8192}
	const ts = 1024
	want, err := BcastAblationOpts(hw.SummitNode, 4, sizes, ts, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range edgeWorkers() {
		got, err := BcastAblationOpts(hw.SummitNode, 4, sizes, ts, SweepOpts{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameRows(t, "BcastAblation", w, got, want)
	}
}

// TestPlanAblationParallelMatchesSerial: the ablation is a constant serial
// run (its speedup column is a wall-clock ratio), so what is left to pin is
// that its deterministic columns reproduce run to run.
func TestPlanAblationParallelMatchesSerial(t *testing.T) {
	// Wall-clock and speedup are real time measurements; only the
	// deterministic columns are compared.
	type stable struct {
		Variant                     string
		Evals                       int
		Hits, Misses, Invalidations int64
	}
	project := func(rows []PlanRow) []stable {
		out := make([]stable, len(rows))
		for i, r := range rows {
			out[i] = stable{r.Variant, r.Evals, r.Hits, r.Misses, r.Invalidations}
		}
		return out
	}
	want, err := PlanAblation(1024, 128, 4, hw.SummitNode)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PlanAblation(1024, 128, 4, hw.SummitNode)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "PlanAblation", 0, project(got), project(want))
}

// TestFamilyMergedMetricsDeterministic: the merged engine metrics a sweep
// reports are identical across worker counts, wall-clock sweep/* gauges
// excluded.
func TestFamilyMergedMetricsDeterministic(t *testing.T) {
	render := func(w int) []obs.Metric {
		reg := obs.NewRegistry()
		_, err := SchedAblationOpts(hw.SummitNode, 1, 0, []int{8192}, 2048,
			SweepOpts{Workers: w, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		var out []obs.Metric
		for _, m := range reg.Snapshot() {
			if strings.HasPrefix(m.Name, "sweep/") {
				continue
			}
			out = append(out, m)
		}
		return out
	}
	want := render(0)
	if len(want) == 0 {
		t.Fatal("serial sweep merged no engine metrics")
	}
	for _, w := range []int{1, 3, runtime.NumCPU()} {
		got := render(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d metrics, serial has %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: metric %q = %+v, serial %+v", w, want[i].Name, got[i], want[i])
			}
		}
	}
}
