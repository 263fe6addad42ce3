// Package sweep is the deterministic sweep executor: it fans a grid of
// independent phantom-run configurations over a bounded worker pool whose
// every output is bit-identical at every pool width.
//
// The determinism argument has three legs:
//
//   - Each grid point runs in an isolated context — its own engine state
//     (constructed inside the point function) and its own obs.Registry
//     shard — so no floating-point state is shared between concurrently
//     executing points.
//   - Results are keyed by grid index and stored into a pre-sized slice,
//     so the returned row order is the submission order regardless of
//     which worker finished first.
//   - Metric shards are folded into the merged registry by a frontier
//     merger that only ever advances in index order: shard i is merged
//     strictly after shard i-1, no matter the completion order, so the
//     non-associativity of float64 addition cannot leak scheduling noise
//     into the merged series.
//
// Error semantics are width-independent too. Workers claim indices from
// one ascending cursor and finish what they claim, so every index below a
// claimed one runs: the lowest-index failure always executes, Run returns
// it, and the frontier merger stops folding shards at that index. Once a
// failure is published no worker claims a new index — a one-worker pool
// stops at the first failing point, a wider one finishes only what was
// already in flight.
//
// The only nondeterministic outputs are the sweep/* throughput gauges
// (points/sec, worker busy fraction, merge-queue depth): they are derived
// from wall-clock time and exist for operators, not for golden pinning.
// Equivalence tests must exclude the "sweep/" prefix.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"geompc/internal/obs"
)

// Context is the isolated state handed to every point function.
type Context struct {
	// Reg is a fresh registry shard per point: the point routes all engine
	// metrics into it so the executor can fold shards in index order.
	Reg *obs.Registry
}

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
	// Registry, when non-nil, receives every point's metric shard (merged
	// in index order) plus the sweep/* throughput gauges.
	Registry *obs.Registry
}

// merger folds completed shards into the destination registry at the
// in-order frontier. Workers publish shards[i] and errs[i] before
// signalling index i (the signal channel provides the happens-before
// edge); add is only ever called from one goroutine.
type merger struct {
	reg    *obs.Registry
	shards []*obs.Registry
	errs   []error
	ready  []bool
	next   int // lowest index not yet folded
	depth  int // completed-but-unmerged shard count
	max    int
	err    error // lowest-index error seen at the frontier
}

// add marks point idx complete and advances the merge frontier as far as
// contiguously completed points allow. This is the sweep executor's inner
// loop — it runs once per grid point and must not allocate.
func (m *merger) add(idx int) {
	m.ready[idx] = true
	m.depth++
	for m.next < len(m.ready) && m.ready[m.next] {
		if m.err == nil && m.errs[m.next] != nil {
			m.err = m.errs[m.next]
		}
		if m.err == nil && m.reg != nil {
			// One merge per completed run, not per event; its copies are the
			// shard-isolation contract.
			m.reg.Merge(m.shards[m.next])
		}
		m.shards[m.next] = nil
		m.next++
		m.depth--
	}
	if m.depth > m.max {
		m.max = m.depth
	}
}

// Run executes point(i, ctx) for i in [0, n) on a pool of opts.Workers
// goroutines and returns the results in index order. On failure it returns
// the lowest-index error — the one a single worker walking the indices in
// order stops at — with nil results, and opts.Registry holds exactly the
// shards of the points before the failing index; points above it that were
// not yet claimed when the failure was published never run.
func Run[T any](n int, opts Options, point func(i int, ctx *Context) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: negative grid size %d", n)
	}
	start := time.Now()
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(max(workers, 1), n)
	results := make([]T, n)
	m := &merger{
		reg:    opts.Registry,
		shards: make([]*obs.Registry, n),
		errs:   make([]error, n),
		ready:  make([]bool, n),
	}

	// Workers claim indices from an atomic cursor, run the point in an
	// isolated context, publish the shard, then signal the index; the
	// calling goroutine advances the merge frontier.
	var cursor atomic.Int64
	var failed atomic.Bool
	completed := make(chan int, n) // one send per point: workers never block on the merger
	busyNs := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				ctx := Context{Reg: obs.NewRegistry()}
				t0 := time.Now()
				res, err := point(i, &ctx)
				busyNs[w] += int64(time.Since(t0))
				if err != nil {
					failed.Store(true)
				}
				results[i] = res
				m.shards[i] = ctx.Reg
				m.errs[i] = err
				completed <- i
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(completed)
	}()
	points := 0
	for i := range completed {
		m.add(i)
		points++
	}
	if reg := opts.Registry; reg != nil {
		wall := time.Since(start).Seconds()
		var busy time.Duration // time spent inside point functions
		for _, ns := range busyNs {
			busy += time.Duration(ns)
		}
		reg.Gauge("sweep/points").Set(float64(points))
		reg.Gauge("sweep/workers").Set(float64(workers))
		reg.Gauge("sweep/merge_queue_depth_max").Set(float64(m.max))
		if wall > 0 && workers > 0 {
			reg.Gauge("sweep/points_per_sec").Set(float64(points) / wall)
			reg.Gauge("sweep/worker_busy_fraction").Set(busy.Seconds() / (wall * float64(workers)))
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	return results, nil
}
