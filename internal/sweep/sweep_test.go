package sweep_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geompc/internal/obs"
	"geompc/internal/sweep"
)

// TestRunOrderAndResults: results come back in submission order for every
// pool size, including pools larger than the grid.
func TestRunOrderAndResults(t *testing.T) {
	const n = 17
	for _, workers := range []int{0, 1, 3, runtime.NumCPU(), n + 5, -1} {
		got, err := sweep.Run(n, sweep.Options{Workers: workers}, func(i int, ctx *sweep.Context) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndNegative(t *testing.T) {
	got, err := sweep.Run(0, sweep.Options{Workers: 4}, func(i int, ctx *sweep.Context) (int, error) {
		t.Error("point called on empty grid")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Errorf("empty grid: results=%v err=%v", got, err)
	}
	if _, err := sweep.Run(-1, sweep.Options{}, func(i int, ctx *sweep.Context) (int, error) { return 0, nil }); err == nil {
		t.Error("negative grid size accepted")
	}
}

// TestRunLowestIndexError: every pool width reports the lowest-index
// failure. One worker stops there; a wider pool runs every index below
// the failure and at most what was in flight above it.
func TestRunLowestIndexError(t *testing.T) {
	const n = 12
	fail := map[int]bool{3: true, 7: true, 10: true}
	for _, workers := range []int{0, 1, 4} {
		var calls atomic.Int64
		_, err := sweep.Run(n, sweep.Options{Workers: workers}, func(i int, ctx *sweep.Context) (int, error) {
			calls.Add(1)
			if fail[i] {
				return 0, fmt.Errorf("point %d failed", i)
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "point 3 failed") {
			t.Errorf("workers=%d: err = %v, want lowest-index failure (point 3)", workers, err)
		}
		if got := calls.Load(); workers <= 1 && got != 4 {
			t.Errorf("workers=%d ran %d points, want a stop after 4", workers, got)
		} else if got < 4 || got > n {
			t.Errorf("workers=%d ran %d points, want 4..%d", workers, got, n)
		}
	}
}

// TestRunStopsClaimingAfterFailure: once a failure is published no worker
// claims a new index. Point 0 fails while the other workers of the pool are
// held inside their first point, so exactly the indices in flight at that
// moment run — one for a one-worker pool — and nothing is merged.
func TestRunStopsClaimingAfterFailure(t *testing.T) {
	const n = 40
	for _, workers := range []int{0, 1, 4} {
		width := max(workers, 1)
		var claimed atomic.Int64
		inFlight := make(chan struct{})
		reg := obs.NewRegistry()
		_, err := sweep.Run(n, sweep.Options{Workers: workers, Registry: reg}, func(i int, ctx *sweep.Context) (int, error) {
			ctx.Reg.Counter("pt/ran").Inc()
			if claimed.Add(1) == int64(width) {
				close(inFlight)
			}
			<-inFlight // every worker holds a point before any returns
			if i == 0 {
				return 0, errors.New("point 0 failed")
			}
			// Outlast the failing point's return, so the failure is
			// published before this worker looks for its next index.
			time.Sleep(50 * time.Millisecond)
			return i, nil
		})
		if err == nil || err.Error() != "point 0 failed" {
			t.Errorf("workers=%d: err = %v, want point 0's", workers, err)
		}
		if got := claimed.Load(); got != int64(width) {
			t.Errorf("workers=%d: %d points ran, want the %d in flight when point 0 failed", workers, got, width)
		}
		if got := reg.Counter("pt/ran").Value(); got != 0 {
			t.Errorf("workers=%d: merged %d shards past a failure at index 0", workers, got)
		}
		if got := reg.Gauge("sweep/points").Value(); got != float64(width) {
			t.Errorf("workers=%d: sweep/points = %g, want %d", workers, got, width)
		}
	}
}

// TestRunMergedMetricsDeterministic: the merged registry renders
// bit-identically for every worker count (sweep/* gauges excluded — they
// are wall-clock derived).
func TestRunMergedMetricsDeterministic(t *testing.T) {
	const n = 23
	render := func(workers int) string {
		reg := obs.NewRegistry()
		_, err := sweep.Run(n, sweep.Options{Workers: workers, Registry: reg}, func(i int, ctx *sweep.Context) (int, error) {
			ctx.Reg.Counter("pt/count").Inc()
			ctx.Reg.Gauge("pt/sum").Add(0.1 * float64(i+1)) // order-sensitive float fold
			ctx.Reg.Histogram("pt/size", []float64{5, 15}).Observe(float64(i))
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, m := range reg.Snapshot() {
			if strings.HasPrefix(m.Name, "sweep/") {
				continue
			}
			fmt.Fprintf(&sb, "%s %d %x\n", m.Name, m.Count, m.Value)
		}
		return sb.String()
	}
	want := render(0)
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		if got := render(workers); got != want {
			t.Errorf("workers=%d merged metrics differ from serial:\n%s\n---\n%s", workers, got, want)
		}
	}
}

// TestRunErrorMergesPrefixOnly: on failure the merged registry holds
// exactly the shards before the failing index, pool or no pool.
func TestRunErrorMergesPrefixOnly(t *testing.T) {
	const n, failAt = 9, 5
	for _, workers := range []int{0, 3} {
		reg := obs.NewRegistry()
		_, err := sweep.Run(n, sweep.Options{Workers: workers, Registry: reg}, func(i int, ctx *sweep.Context) (int, error) {
			ctx.Reg.Counter("pt/ran").Inc()
			if i == failAt {
				return 0, errors.New("boom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if got := reg.Counter("pt/ran").Value(); got != failAt {
			t.Errorf("workers=%d: merged %d shards, want %d (prefix before failure)", workers, got, failAt)
		}
	}
}

// TestRunWorkerContexts: every point gets a fresh registry shard.
func TestRunWorkerContexts(t *testing.T) {
	const n, workers = 20, 4
	var dirtyShard atomic.Int64
	_, err := sweep.Run(n, sweep.Options{Workers: workers}, func(i int, ctx *sweep.Context) (int, error) {
		if len(ctx.Reg.Snapshot()) != 0 {
			dirtyShard.Add(1)
		}
		ctx.Reg.Counter("seen").Inc()
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dirtyShard.Load() != 0 {
		t.Errorf("dirtyShard=%d", dirtyShard.Load())
	}
}

// TestRunSummaryAndGauges: the sweep/* gauges report the run shape (points,
// pool width, positive throughput); Workers 0 is a one-worker pool.
func TestRunSummaryAndGauges(t *testing.T) {
	const n = 8
	for _, c := range []struct{ workers, width int }{{2, 2}, {0, 1}, {n + 3, n}} {
		reg := obs.NewRegistry()
		_, err := sweep.Run(n, sweep.Options{Workers: c.workers, Registry: reg}, func(i int, ctx *sweep.Context) (int, error) {
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Gauge("sweep/points").Value(); got != n {
			t.Errorf("workers=%d: sweep/points gauge = %g, want %d", c.workers, got, n)
		}
		if got := reg.Gauge("sweep/workers").Value(); got != float64(c.width) {
			t.Errorf("workers=%d: sweep/workers gauge = %g, want %d", c.workers, got, c.width)
		}
		if reg.Gauge("sweep/points_per_sec").Value() <= 0 {
			t.Errorf("workers=%d: sweep/points_per_sec gauge not positive", c.workers)
		}
		if busy := reg.Gauge("sweep/worker_busy_fraction").Value(); busy < 0 || busy > 1 {
			t.Errorf("workers=%d: sweep/worker_busy_fraction = %g outside [0,1]", c.workers, busy)
		}
	}
}

// TestRunMergeQueueDepth: when point 0 is the last to finish, every other
// shard queues behind it, so the recorded depth reaches n-1.
func TestRunMergeQueueDepth(t *testing.T) {
	const n = 6
	release := make(chan struct{})
	var finished atomic.Int64
	reg := obs.NewRegistry()
	_, err := sweep.Run(n, sweep.Options{Workers: n, Registry: reg}, func(i int, ctx *sweep.Context) (int, error) {
		if i == 0 {
			// Hold the merge frontier until every other point finished,
			// then linger so their completion signals reach the merger
			// before this one does.
			<-release
			time.Sleep(100 * time.Millisecond)
		} else if finished.Add(1) == n-1 {
			close(release)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("sweep/merge_queue_depth_max").Value(); got != n-1 {
		t.Errorf("sweep/merge_queue_depth_max = %g, want %d", got, n-1)
	}
}
