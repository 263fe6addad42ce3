package plan

import (
	"sync"

	"geompc/internal/obs"
	"geompc/internal/runtime"
)

// Cache holds at most one compiled plan per shape signature and counts how
// the cache behaves — hits (pure replays), misses (first compiles) and
// invalidations (precision-map deltas forcing recompiles). The expected
// pattern is one cache per repeated-workload loop (an MLE fit, a
// Monte-Carlo replica, a sweep).
//
// Concurrency contract: a Cache is safe for any number of concurrent
// readers and writers — the map is guarded by mu, the counters are atomic,
// and a *Plan is immutable once Compile returns, so Run may replay
// (Plan.Replay) or diff (Plan.Invalidate) the plan it looked up while
// another goroutine stores a successor for the same signature; the reader
// keeps its own consistent snapshot. What the contract does NOT promise is
// counter determinism under sharing: when sweep workers share one cache,
// which worker wins the compile race (and therefore how many misses or
// invalidations are counted) depends on scheduling. Results never do —
// every worker either replays a frozen plan or compiles its own, both
// bit-identical to a fresh run — so shared-cache sweeps stay exact while
// Stats() becomes a diagnostic, not a pinned series.
type Cache struct {
	mu    sync.Mutex
	plans map[uint64]*Plan

	reg           *obs.Registry
	hits          *obs.Counter
	misses        *obs.Counter
	invalidations *obs.Counter
	replays       *obs.Counter
	tasksDirty    *obs.Counter
}

// NewCache returns an empty cache. Counters register under plan/cache/* in
// reg; nil uses a private registry (retrievable via Metrics).
func NewCache(reg *obs.Registry) *Cache {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache{
		plans:         make(map[uint64]*Plan),
		reg:           reg,
		hits:          reg.Counter("plan/cache/hits"),
		misses:        reg.Counter("plan/cache/misses"),
		invalidations: reg.Counter("plan/cache/invalidations"),
		replays:       reg.Counter("plan/cache/replays"),
		tasksDirty:    reg.Counter("plan/cache/tasks_invalidated"),
	}
}

// Metrics returns the registry the cache counts into.
func (c *Cache) Metrics() *obs.Registry { return c.reg }

// lookup returns the plan stored for sig, nil if none.
func (c *Cache) lookup(sig uint64) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans[sig]
}

// store records p under its shape signature, replacing any previous plan
// for that shape (one plan per shape: repeated workloads alternate
// precision maps rarely, and a superseded schedule has no residual value).
func (c *Cache) store(p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans[p.Sig] = p
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
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

// Metrics returns the run's metrics registry; plan-backed outcomes hand
// back the compile run's frozen one.
func (o Outcome) Metrics() *obs.Registry {
	if o.Plan != nil {
		return o.Plan.Metrics
	}
	return o.Engine.Metrics()
}

// Run is the one cached-run flow. The first run of a shape compiles a plan
// (miss); later runs under an unchanged precision map replay it, paying only
// the numeric bodies (hit); a changed map is invalidated — the dirty
// downstream closure is measured and counted — and recompiled. A nil cache
// runs everything live and counts nothing.
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
	if p := c.lookup(sig); p != nil {
		if p.PrecSig == precSig {
			c.hits.Inc()
			c.replays.Inc()
			return p.Replay(g)
		}
		// The precision map changed under this shape: measure the damage
		// (affected tasks + downstream closure), then recompile — timing is
		// coupled globally through device and link contention, so a partial
		// re-simulation would be unsound.
		inv, err := p.Invalidate(g)
		if err != nil {
			return Outcome{}, err
		}
		c.invalidations.Inc()
		c.tasksDirty.Add(int64(len(inv.Dirty)))
	} else {
		c.misses.Inc()
	}
	eng := engine(g)
	p, err := Compile(eng, sig, precSig)
	if err != nil {
		return Outcome{}, err
	}
	c.store(p)
	return Outcome{Stats: p.Stats, Plan: p, Err: eng.BodyErr()}, nil
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Invalidations, Replays, TasksInvalidated int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             c.hits.Value(),
		Misses:           c.misses.Value(),
		Invalidations:    c.invalidations.Value(),
		Replays:          c.replays.Value(),
		TasksInvalidated: c.tasksDirty.Value(),
	}
}
