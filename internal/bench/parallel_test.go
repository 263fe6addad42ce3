package bench

// Pool-width equivalence for every sweep family: the deterministic
// executor must return row-for-row identical results (struct equality,
// schedule digests included) at every worker count. "Serial" in the names
// below is the one-worker reference (Workers: 0).

import (
	"runtime"
	"testing"

	"geompc/internal/hw"
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
}

func TestScalingParallelMatchesSerial(t *testing.T) {
	nodes := []int{1, 2, 4}
	const baseN, ts = 8192, 2048
	wantWeak, err := WeakScaling(nodes, baseN, ts, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantStrong, err := StrongScaling(nodes, baseN, ts, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range edgeWorkers() {
		so := SweepOpts{Workers: w}
		gotWeak, err := WeakScaling(nodes, baseN, ts, so)
		if err != nil {
			t.Fatalf("weak workers=%d: %v", w, err)
		}
		sameRows(t, "WeakScaling", w, gotWeak, wantWeak)
		gotStrong, err := StrongScaling(nodes, baseN, ts, so)
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
