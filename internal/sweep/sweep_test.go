package sweep_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geompc/internal/sweep"
)

// TestRunOrderAndResults: results come back in submission order for every
// pool size, including pools larger than the grid, and the pool is as wide
// as Options.Workers says: 0 is one worker, PerCore is GOMAXPROCS, and a
// pool wider than the grid is clamped to it. The first width points meet at
// a barrier and linger there, so a narrower pool never fills it (the wait
// times out) and a wider one puts a further point in flight beside them.
func TestRunOrderAndResults(t *testing.T) {
	const n = 17
	for _, workers := range []int{0, 1, 3, runtime.NumCPU(), n + 5, sweep.PerCore} {
		width := workers
		if width == sweep.PerCore {
			width = runtime.GOMAXPROCS(0)
		}
		width = min(max(width, 1), n)
		var inFlight, maxInFlight, arrived atomic.Int64
		full := make(chan struct{})
		got, err := sweep.Run(n, sweep.Options{Workers: workers}, func(i int) (int, error) {
			cur := inFlight.Add(1)
			for m := maxInFlight.Load(); cur > m && !maxInFlight.CompareAndSwap(m, cur); m = maxInFlight.Load() {
			}
			if a := arrived.Add(1); a <= int64(width) {
				if a == int64(width) {
					close(full)
				}
				select {
				case <-full:
				case <-time.After(2 * time.Second):
				}
				time.Sleep(20 * time.Millisecond)
			}
			inFlight.Add(-1)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := maxInFlight.Load(); got != int64(width) {
			t.Errorf("workers=%d: %d points in flight at once, want a pool of %d", workers, got, width)
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
	got, err := sweep.Run(0, sweep.Options{Workers: 4}, func(i int) (int, error) {
		t.Error("point called on empty grid")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Errorf("empty grid: results=%v err=%v", got, err)
	}
	if _, err := sweep.Run(-1, sweep.Options{}, func(i int) (int, error) { return 0, nil }); err == nil {
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
		var ran [n]atomic.Bool
		_, err := sweep.Run(n, sweep.Options{Workers: workers}, func(i int) (int, error) {
			calls.Add(1)
			ran[i].Store(true)
			if fail[i] {
				return 0, fmt.Errorf("point %d failed", i)
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "point 3 failed") {
			t.Errorf("workers=%d: err = %v, want lowest-index failure (point 3)", workers, err)
		}
		for i := 0; i < 3; i++ {
			if !ran[i].Load() {
				t.Errorf("workers=%d: point %d below the failure never ran", workers, i)
			}
		}
		if got := calls.Load(); workers <= 1 && got != 4 {
			t.Errorf("workers=%d ran %d points, want a stop after 4", workers, got)
		} else if got < 4 || got > n {
			t.Errorf("workers=%d ran %d points, want 4..%d", workers, got, n)
		}
	}
}

// TestRunStopsClaimingAfterFailure: once a failure is published no worker
// claims a new index, and Run reports the lowest-index failure, whatever
// the order in time. With every worker of the pool held inside its first
// point, point 1 fails at once, points 2.. succeed after that failure is
// published — so their workers stop only because they read it — and point
// 0 fails last. Exactly the indices in flight run (one for a one-worker
// pool, which stops at point 0) and point 0's error comes back.
func TestRunStopsClaimingAfterFailure(t *testing.T) {
	const n = 40
	for _, workers := range []int{0, 1, 4} {
		width := max(workers, 1)
		var claimed atomic.Int64
		inFlight := make(chan struct{})
		_, err := sweep.Run(n, sweep.Options{Workers: workers}, func(i int) (int, error) {
			if claimed.Add(1) == int64(width) {
				close(inFlight)
			}
			<-inFlight // every worker holds a point before any returns
			switch {
			case i == 1:
				return 0, fmt.Errorf("point %d failed", i)
			case i == 0:
				time.Sleep(100 * time.Millisecond) // fail last in time
				return 0, fmt.Errorf("point %d failed", i)
			}
			// Outlast point 1's return, so its failure is published
			// before this worker looks for its next index.
			time.Sleep(50 * time.Millisecond)
			return i, nil
		})
		if err == nil || err.Error() != "point 0 failed" {
			t.Errorf("workers=%d: err = %v, want point 0's", workers, err)
		}
		if got := claimed.Load(); got != int64(width) {
			t.Errorf("workers=%d: %d points ran, want the %d in flight at the first failure", workers, got, width)
		}
	}
}
