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
	"geompc/internal/plan"
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

// TestRunLowestIndexError: the pool runs every point but reports the
// lowest-index failure — the same error the serial path stops at.
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
		if workers == 0 && calls.Load() != 4 {
			t.Errorf("serial ran %d points, want early exit after 4", calls.Load())
		}
		if workers > 0 && calls.Load() != n {
			t.Errorf("workers=%d ran %d points, want all %d", workers, calls.Load(), n)
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

// TestRunWorkerContexts: worker ids stay in range, every point gets a
// fresh registry shard, and cache wiring follows the options.
func TestRunWorkerContexts(t *testing.T) {
	const n, workers = 20, 4
	shared := plan.NewCache(nil)
	var badWorker, sharedMiss, dirtyShard atomic.Int64
	_, err := sweep.Run(n, sweep.Options{Workers: workers, Cache: shared}, func(i int, ctx *sweep.Context) (int, error) {
		if ctx.Worker < 0 || ctx.Worker >= workers {
			badWorker.Add(1)
		}
		if ctx.Cache != shared {
			sharedMiss.Add(1)
		}
		if len(ctx.Reg.Snapshot()) != 0 {
			dirtyShard.Add(1)
		}
		ctx.Reg.Counter("seen").Inc()
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if badWorker.Load() != 0 || sharedMiss.Load() != 0 || dirtyShard.Load() != 0 {
		t.Errorf("badWorker=%d sharedMiss=%d dirtyShard=%d", badWorker.Load(), sharedMiss.Load(), dirtyShard.Load())
	}
}

// TestRunSummaryAndGauges: the summary and sweep/* gauges report the run
// shape (points, workers, positive throughput).
func TestRunSummaryAndGauges(t *testing.T) {
	const n = 8
	var s sweep.Summary
	reg := obs.NewRegistry()
	_, err := sweep.Run(n, sweep.Options{Workers: 2, Registry: reg, Summary: &s}, func(i int, ctx *sweep.Context) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Points != n || s.Workers != 2 {
		t.Errorf("summary = %+v, want %d points / 2 workers", s, n)
	}
	if s.PointsPerSec <= 0 || s.Wall <= 0 {
		t.Errorf("summary throughput not positive: %+v", s)
	}
	if got := reg.Gauge("sweep/points").Value(); got != float64(n) {
		t.Errorf("sweep/points gauge = %g, want %d", got, n)
	}
	if got := reg.Gauge("sweep/workers").Value(); got != 2 {
		t.Errorf("sweep/workers gauge = %g, want 2", got)
	}
	if reg.Gauge("sweep/points_per_sec").Value() <= 0 {
		t.Error("sweep/points_per_sec gauge not positive")
	}
	if !strings.Contains(s.String(), "2 workers") {
		t.Errorf("summary string %q missing worker count", s.String())
	}

	var serial sweep.Summary
	if _, err := sweep.Run(n, sweep.Options{Summary: &serial}, func(i int, ctx *sweep.Context) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if serial.Workers != 0 || !strings.Contains(serial.String(), "serial") {
		t.Errorf("serial summary = %+v (%q)", serial, serial.String())
	}
}

// TestRunMergeQueueDepth: when point 0 is the last to finish, every other
// shard queues behind it, so the recorded depth reaches n-1.
func TestRunMergeQueueDepth(t *testing.T) {
	const n = 6
	release := make(chan struct{})
	var finished atomic.Int64
	var s sweep.Summary
	_, err := sweep.Run(n, sweep.Options{Workers: n, Summary: &s}, func(i int, ctx *sweep.Context) (int, error) {
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
	if s.MaxMergeQueue != n-1 {
		t.Errorf("max merge queue = %d, want %d", s.MaxMergeQueue, n-1)
	}
}
