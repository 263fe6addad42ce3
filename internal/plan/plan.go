// Package plan memoizes a factorization's simulated run. Cache.Run
// compiles a plan on the first run of a shape (miss), replays it while the
// precision map is unchanged (hit), and recompiles it when the map changed
// (invalidation). A replay runs the numeric bodies of a fresh graph in
// dataflow order (runtime.RunBodies — a live run's executor without the
// event loop) and hands back the frozen Stats, so it produces the
// bit-identical factor — on a non-SPD matrix the same failure and partial
// factor — and exactly the Stats, timeline included, of a live run.
//
// No fit, study or figure passes a cache; the frozen benchmark/ probes it.
package plan

import (
	"sync"
	"sync/atomic"

	"geompc/internal/runtime"
)

// Plan is one compiled run, valid for any graph with the same shape and
// precision signatures. It is immutable once compiled, so one Plan may
// serve any number of concurrent replays (each builds its own graph, and
// all of them share the read-only Stats).
type Plan struct {
	// Sig is the caller-supplied shape signature (platform, tiling,
	// strategy, run options — everything except the precision map and the
	// numeric data).
	Sig uint64
	// PrecSig is the precision-map signature the plan was compiled under
	// (precmap.Maps.Signature).
	PrecSig uint64
	// Stats is the frozen record of the compiling run: ScheduleDigest, and
	// Trace when the run was traced.
	Stats runtime.Stats
}

// Cache holds at most one compiled plan per shape signature and counts
// hits, misses and invalidations (see Stats).
//
// A Cache is safe for concurrent use: the map is guarded by mu and the
// counters are atomic. Which of several concurrent callers wins a compile
// race — and so how many misses or invalidations are counted — depends on
// scheduling; results never do, since every caller either replays a frozen
// plan or compiles its own, both bit-identical to a live run.
type Cache struct {
	mu    sync.Mutex
	plans map[uint64]*Plan

	hits, misses, invalidations atomic.Int64
}

// NewCache returns an empty cache. Its argument is ignored: it stays only
// because the frozen benchmark/ tree calls NewCache(nil).
func NewCache(_ any) *Cache {
	return &Cache{plans: make(map[uint64]*Plan)}
}

// lookup returns the plan stored for sig, nil if none.
func (c *Cache) lookup(sig uint64) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans[sig]
}

// store records p under its shape signature, replacing any previous plan
// for that shape.
func (c *Cache) store(p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans[p.Sig] = p
}

// Run is the one cached-run flow for graph g of shape signature sig under
// a precision map of signature precSig, on plat with the options opt (sig
// must cover both). The first run of a shape compiles a plan (miss): a
// live runtime.Run, numeric bodies and all. Later runs under an unchanged
// precision map replay it (hit); a changed map recompiles it
// (invalidation) — timing is coupled globally through device and link
// contention, so a partial re-simulation would be unsound.
//
// It returns the plan that served the run and the run's numeric failure
// (bodyErr: runtime.Run's of a compile, runtime.RunBodies' of a replay),
// nil when every body succeeded or the graph had none.
func (c *Cache) Run(sig, precSig uint64, g runtime.Graph, plat *runtime.Platform, opt runtime.Options) (p *Plan, bodyErr, err error) {
	switch p = c.lookup(sig); {
	case p == nil:
		c.misses.Add(1)
	case p.PrecSig != precSig:
		c.invalidations.Add(1)
	default:
		c.hits.Add(1)
		if bodyErr, err = runtime.RunBodies(g); err != nil {
			return nil, nil, err
		}
		return p, bodyErr, nil
	}
	p = &Plan{Sig: sig, PrecSig: precSig}
	if p.Stats, bodyErr, err = runtime.Run(plat, g, opt); err != nil {
		return nil, nil, err
	}
	c.store(p)
	return p, bodyErr, nil
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Invalidations int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Invalidations: c.invalidations.Load()}
}
