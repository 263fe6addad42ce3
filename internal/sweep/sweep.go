// Package sweep is the deterministic sweep executor: it fans a grid of
// independent phantom-run configurations over a bounded worker pool whose
// every output is bit-identical at every pool width.
//
// The determinism argument has two legs:
//
//   - Each grid point builds its own engine state inside the point
//     function, so no floating-point state is shared between concurrently
//     executing points.
//   - Results are keyed by grid index and stored into a pre-sized slice,
//     so the returned row order is the submission order regardless of
//     which worker finished first.
//
// Error semantics are width-independent too. Workers claim indices from
// one ascending cursor and finish what they claim, so every index below a
// claimed one runs: the lowest-index failure always executes and Run
// returns it. Once a failure is published no worker claims a new index — a
// one-worker pool stops at the first failing point, a wider one finishes
// only what was already in flight.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PerCore is the Options.Workers value every command runs its sweeps with:
// one worker per runtime.GOMAXPROCS(0).
const PerCore = -1

// Options configures one Run.
type Options struct {
	// Workers selects the pool width: 0 is a one-worker pool (index order
	// on one goroutine — the reference the equivalence tests compare
	// against), n > 0 is n workers, and any negative value (PerCore) sizes
	// the pool to runtime.GOMAXPROCS(0). Pools wider than the grid are
	// clamped.
	Workers int
}

// Run executes point(i) for i in [0, n) on a pool of opts.Workers
// goroutines and returns the results in index order. On failure it returns
// the lowest-index error — the one a single worker walking the indices in
// order stops at — with nil results; points above it that were not yet
// claimed when the failure was published never run.
func Run[T any](n int, opts Options, point func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: negative grid size %d", n)
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(max(workers, 1), n)
	results := make([]T, n)
	errs := make([]error, n)

	var cursor atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = point(i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
