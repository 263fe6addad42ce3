// Package plan memoizes a factorization's simulated schedule. Cache.Run
// compiles a plan on the first run of a shape (miss), replays it while the
// precision map is unchanged (hit), and recompiles it when the map changed
// (invalidation). A replay runs the numeric bodies of a fresh graph in
// dataflow order (runtime.RunBodies — a live run's executor without the
// event loop) and hands back the frozen Stats, so it produces the
// bit-identical factor — on a non-SPD matrix the same failure and partial
// factor — and the same schedule digest as a live run.
//
// No fit, study or figure passes a cache; the frozen benchmark/ probes it.
package plan

import (
	"sync"
	"sync/atomic"

	"geompc/internal/runtime"
)

// Plan is one compiled schedule, valid for any graph with the same shape
// and precision signatures. It is immutable once compiled, so one Plan may
// serve any number of concurrent replays (each builds its own graph).
type Plan struct {
	// Sig is the caller-supplied shape signature (platform, tiling,
	// strategy, pipeline depth — everything except the precision map and
	// the numeric data).
	Sig uint64
	// PrecSig is the precision-map signature the plan was compiled under
	// (precmap.Maps.Signature).
	PrecSig uint64
	// Stats is the frozen virtual-time outcome, including ScheduleDigest.
	Stats runtime.Stats
	// Schedule is the traced task timeline (commit order).
	Schedule []runtime.ScheduledTask
}

// compile runs eng — an engine already configured for its graph
// (lookahead, audit) — once: a full simulation, numeric bodies and
// all (eng.BodyErr() is that run's numeric failure).
func compile(eng *runtime.Engine, sig, precSig uint64) (*Plan, error) {
	eng.Trace = true // the plan freezes the traced timeline
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return &Plan{
		Sig: sig, PrecSig: precSig, Stats: stats,
		Schedule: append([]runtime.ScheduledTask(nil), eng.ScheduleTrace()...),
	}, nil
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

// Outcome is what one Cache.Run produced. Exactly one of Plan and Engine is
// set: Plan when the cache served the run (a replay, or the compile of a
// miss or invalidation), Engine when the run went live (nil cache).
type Outcome struct {
	Stats  runtime.Stats
	Plan   *Plan
	Engine *runtime.Engine
	// Err is the run's numeric failure (runtime.Engine.BodyErr), nil when
	// every body succeeded or the graph had none.
	Err error
}

// Schedule returns the run's task timeline in commit order: the plan's
// frozen one, or whatever the live engine traced (empty without Trace).
func (o Outcome) Schedule() []runtime.ScheduledTask {
	if o.Plan != nil {
		return o.Plan.Schedule
	}
	return o.Engine.ScheduleTrace()
}

// Run is the one cached-run flow. The first run of a shape compiles a plan
// (miss); later runs under an unchanged precision map replay it (hit); a
// changed map recompiles it (invalidation) — timing is coupled globally
// through device and link contention, so a partial re-simulation would be
// unsound. A nil cache runs everything live and counts nothing.
//
// key returns the run's shape and precision-map signatures (consulted only
// for a non-nil cache), build constructs its task graph, and engine
// configures an engine for that graph.
func (c *Cache) Run(key func() (sig, precSig uint64), build func() (runtime.Graph, error), engine func(runtime.Graph) *runtime.Engine) (Outcome, error) {
	g, err := build()
	if err != nil {
		return Outcome{}, err
	}
	if c == nil {
		eng := engine(g)
		stats, err := eng.Run()
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Stats: stats, Engine: eng, Err: eng.BodyErr()}, nil
	}
	sig, precSig := key()
	switch p := c.lookup(sig); {
	case p == nil:
		c.misses.Add(1)
	case p.PrecSig != precSig:
		c.invalidations.Add(1)
	default:
		c.hits.Add(1)
		return Outcome{Stats: p.Stats, Plan: p, Err: runtime.RunBodies(g)}, nil
	}
	eng := engine(g)
	p, err := compile(eng, sig, precSig)
	if err != nil {
		return Outcome{}, err
	}
	c.store(p)
	return Outcome{Stats: p.Stats, Plan: p, Err: eng.BodyErr()}, nil
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Invalidations int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Invalidations: c.invalidations.Load()}
}
