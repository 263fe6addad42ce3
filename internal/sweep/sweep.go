// Package sweep is the deterministic parallel sweep executor: it fans a
// grid of independent phantom-run configurations over a bounded worker
// pool while keeping every output bit-identical to the serial path.
//
// The determinism argument has three legs:
//
//   - Each grid point runs in an isolated context — its own engine state
//     (constructed inside the point function) and its own obs.Registry
//     shard — so no floating-point state is shared between concurrently
//     executing points (a shared plan.Cache only hands out immutable plans).
//   - Results are keyed by grid index and stored into a pre-sized slice,
//     so the returned row order is the submission order regardless of
//     which worker finished first.
//   - Metric shards are folded into the merged registry by a frontier
//     merger that only ever advances in index order: shard i is merged
//     strictly after shard i-1, no matter the completion order, so the
//     non-associativity of float64 addition cannot leak scheduling noise
//     into the merged series.
//
// Error semantics match the serial path exactly: the serial executor stops
// at the first failing point, which — because it walks indices in order —
// is the lowest-index failure. The parallel executor runs every point and
// returns the lowest-index error, and the frontier merger stops folding
// shards at that index, so both the error and the merged metrics are
// identical to a serial run.
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
	"geompc/internal/plan"
)

// Context is the isolated per-worker state handed to every point function.
// Reg is a fresh registry shard per POINT (not per worker): the point
// should route all engine metrics into it so the executor can fold shards
// deterministically. Cache, when non-nil, is the sweep-wide shared plan
// cache (see Options.Cache), safe to hand to cholesky.RunCached.
type Context struct {
	// Worker is the pool slot running this point: 0..workers-1, and 0 in
	// serial mode.
	Worker int
	// Reg is this point's private metrics shard; merged in index order.
	Reg *obs.Registry
	// Cache is the plan cache for this point, nil unless Options enabled
	// one.
	Cache *plan.Cache
}

// Options configures one Run.
type Options struct {
	// Workers selects the pool size: 0 runs the points serially in the
	// calling goroutine (the reference path, with first-error early exit),
	// n > 0 runs an n-worker pool, and any negative value sizes the pool
	// to runtime.GOMAXPROCS(0). Pools larger than the grid are clamped.
	Workers int
	// Cache, when non-nil, is shared by every worker. The plan.Cache
	// concurrency contract makes this sound: results stay bit-identical
	// while hit/miss counters become scheduling-dependent diagnostics.
	Cache *plan.Cache
	// Registry, when non-nil, receives every point's metric shard (merged
	// in index order) plus the sweep/* throughput gauges.
	Registry *obs.Registry
	// Summary, when non-nil, is filled with the run's throughput figures.
	Summary *Summary
}

// Summary reports how one sweep executed. All fields derive from
// wall-clock measurements and are NOT deterministic.
type Summary struct {
	// Points is the number of grid points executed.
	Points int
	// Workers is the pool size used; 0 means the serial path ran.
	Workers int
	// Wall is the end-to-end sweep duration.
	Wall time.Duration
	// PointsPerSec is Points divided by Wall.
	PointsPerSec float64
	// BusyFrac is the fraction of total pool capacity spent inside point
	// functions (1.0 = perfectly busy pool).
	BusyFrac float64
	// MaxMergeQueue is the deepest the out-of-order merge queue got: the
	// largest number of completed shards held back waiting for a
	// lower-index point to finish.
	MaxMergeQueue int
}

// String renders the summary as a one-line human report.
func (s Summary) String() string {
	mode := "serial"
	if s.Workers > 0 {
		mode = fmt.Sprintf("%d workers", s.Workers)
	}
	return fmt.Sprintf("sweep: %d points in %v (%.1f points/sec, %s, busy %.0f%%, max merge queue %d)",
		s.Points, s.Wall.Round(time.Microsecond), s.PointsPerSec, mode, 100*s.BusyFrac, s.MaxMergeQueue)
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

// Run executes point(i, ctx) for every i in [0, n) and returns the
// results in index order. With opts.Workers == 0 the points run serially
// in the calling goroutine and the first error aborts the sweep; with a
// worker pool every point runs and the lowest-index error is returned —
// the same error a serial run would have hit first. On error the results
// are nil and opts.Registry holds exactly the shards of the points before
// the failing index, matching the serial path bit for bit.
func Run[T any](n int, opts Options, point func(i int, ctx *Context) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: negative grid size %d", n)
	}
	start := time.Now()
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	m := &merger{
		reg:    opts.Registry,
		shards: make([]*obs.Registry, n),
		errs:   make([]error, n),
		ready:  make([]bool, n),
	}

	var busy time.Duration
	if workers == 0 {
		// Serial reference path: index order, first-error early exit.
		ctx := Context{Worker: 0, Cache: opts.Cache}
		for i := 0; i < n; i++ {
			ctx.Reg = obs.NewRegistry()
			t0 := time.Now()
			res, err := point(i, &ctx)
			busy += time.Since(t0)
			results[i] = res
			m.shards[i] = ctx.Reg
			m.errs[i] = err
			m.add(i)
			if err != nil {
				finish(opts, m, i+1, 0, start, busy, 1)
				return nil, err
			}
		}
		finish(opts, m, n, 0, start, busy, 1)
		return results, nil
	}

	// Pool path: workers claim indices from an atomic cursor, run the
	// point in an isolated context, publish the shard, then signal the
	// index; the calling goroutine advances the merge frontier.
	var cursor atomic.Int64
	completed := make(chan int, n)
	busyNs := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := Context{Worker: w, Cache: opts.Cache}
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				ctx.Reg = obs.NewRegistry()
				t0 := time.Now()
				res, err := point(i, &ctx)
				busyNs[w] += int64(time.Since(t0))
				results[i] = res
				m.shards[i] = ctx.Reg
				m.errs[i] = err
				completed <- i
			}
		}(w)
	}
	for received := 0; received < n; received++ {
		m.add(<-completed)
	}
	wg.Wait()
	for _, ns := range busyNs {
		busy += time.Duration(ns)
	}
	finish(opts, m, n, workers, start, busy, workers)
	if m.err != nil {
		return nil, m.err
	}
	return results, nil
}

// finish computes the throughput figures, publishes the sweep/* gauges
// and fills the caller's Summary. slots is the pool capacity the busy
// fraction is charged against (1 for the serial path).
func finish(opts Options, m *merger, points, workers int, start time.Time, busy time.Duration, slots int) {
	wall := time.Since(start)
	s := Summary{Points: points, Workers: workers, Wall: wall, MaxMergeQueue: m.max}
	if wall > 0 {
		s.PointsPerSec = float64(points) / wall.Seconds()
		s.BusyFrac = busy.Seconds() / (wall.Seconds() * float64(slots))
	}
	if opts.Registry != nil {
		opts.Registry.Gauge("sweep/points").Set(float64(s.Points))
		opts.Registry.Gauge("sweep/workers").Set(float64(s.Workers))
		opts.Registry.Gauge("sweep/points_per_sec").Set(s.PointsPerSec)
		opts.Registry.Gauge("sweep/worker_busy_fraction").Set(s.BusyFrac)
		opts.Registry.Gauge("sweep/merge_queue_depth_max").Set(float64(s.MaxMergeQueue))
	}
	if opts.Summary != nil {
		*opts.Summary = s
	}
}
