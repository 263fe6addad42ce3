package cholesky

import (
	"fmt"

	"geompc/internal/obs"
	"geompc/internal/plan"
	"geompc/internal/runtime"
)

// frontEnd names the DSL a plan was compiled through. Task ids differ
// between the two (algebraic vs insertion order), so plans never cross
// front-ends — the shape signature separates them.
type frontEnd string

const (
	frontPTG frontEnd = "ptg"
	frontDTD frontEnd = "dtd"
)

// planShapeSig hashes everything that determines a factorization's schedule
// except the precision maps and the numeric tile contents: solver backend,
// tiling, process grid, platform, conversion strategy, scheduling policy,
// broadcast topology, pipeline depth and front-end. Two configs with equal
// shape signatures and equal map signatures produce bit-identical
// schedules, so a plan compiled under one replays the other. The backend
// name keeps direct and iterative plans (internal/cg) from ever colliding
// in one cache.
func planShapeSig(cfg Config, fe frontEnd) uint64 {
	var d obs.Digest
	d.WriteString("geompc/plan/v1")
	d.WriteString("direct")
	d.WriteString(string(fe))
	d.WriteInt64(int64(cfg.Desc.N))
	d.WriteInt64(int64(cfg.Desc.TS))
	d.WriteInt64(int64(cfg.Desc.NT))
	d.WriteInt64(int64(cfg.Desc.P))
	d.WriteInt64(int64(cfg.Desc.Q))
	d.WriteInt64(int64(cfg.Platform.Ranks))
	d.WriteInt64(int64(cfg.Platform.DevPerRank))
	d.WriteString(cfg.Platform.Node.Name)
	d.WriteString(cfg.Platform.Node.GPU.Name)
	d.WriteInt64(int64(cfg.Strategy))
	pol := "fifo"
	if cfg.Sched != nil {
		pol = cfg.Sched.Name()
	}
	d.WriteString(pol)
	topo := "binomial"
	if cfg.Bcast != nil {
		topo = cfg.Bcast.Name()
	}
	d.WriteString(topo)
	la := 2
	if cfg.Lookahead > 0 {
		la = cfg.Lookahead
	}
	d.WriteInt64(int64(la))
	return d.Sum()
}

// armedFaults reports whether cfg carries a fault plan with at least one
// event — the runs the plan cache must not serve: faults perturb the
// schedule beyond what the graph alone determines, so they always run live.
func armedFaults(cfg Config) bool {
	return cfg.Faults != nil && cfg.Platform != nil &&
		len(cfg.Faults.Plan(cfg.Platform.NumDevices())) > 0
}

// planOpts converts a Config into plan compile options.
func planOpts(cfg Config) plan.Options {
	return plan.Options{Policy: cfg.Sched, Bcast: cfg.Bcast, Lookahead: cfg.Lookahead, Audit: cfg.Audit}
}

// buildFront constructs the task system for the chosen front-end: the
// runtime.Graph handed to the engine plus the underlying *graph (numeric
// error collection). For PTG the two coincide.
func buildFront(cfg Config, fe frontEnd) (runtime.Graph, *graph, error) {
	if fe == frontDTD {
		g, dtd, err := buildDTD(cfg)
		return dtd, g, err
	}
	g, err := newGraph(cfg)
	if err != nil {
		return nil, nil, err
	}
	return g, g, nil
}

// compileFront runs cfg once under the plan recorder and returns both the
// run's Result and the reusable plan.
func compileFront(cfg Config, fe frontEnd) (*Result, *plan.Plan, error) {
	if armedFaults(cfg) {
		return nil, nil, fmt.Errorf("cholesky: cannot compile a plan under an armed fault injector")
	}
	rg, g, err := buildFront(cfg, fe)
	if err != nil {
		return nil, nil, err
	}
	p, err := plan.Compile(cfg.Platform, rg, planShapeSig(cfg, fe), cfg.Maps.Signature(), planOpts(cfg))
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		Stats:    p.Stats,
		Strategy: cfg.Strategy,
		Err:      g.Err(),
		schedule: p.Schedule,
		metrics:  p.Metrics,
	}
	res.countConversions(cfg)
	return res, p, nil
}

// replayFront re-executes only the numeric bodies of cfg against p's frozen
// schedule.
func replayFront(cfg Config, p *plan.Plan, fe frontEnd) (*Result, error) {
	if armedFaults(cfg) {
		return nil, fmt.Errorf("cholesky: cannot replay a plan under an armed fault injector (run live)")
	}
	if sig := planShapeSig(cfg, fe); sig != p.Sig {
		return nil, fmt.Errorf("cholesky: plan shape signature %016x does not match config %016x", p.Sig, sig)
	}
	if ps := cfg.Maps.Signature(); ps != p.PrecSig {
		return nil, fmt.Errorf("cholesky: plan precision signature %016x does not match maps %016x (invalidate and recompile)", p.PrecSig, ps)
	}
	rg, g, err := buildFront(cfg, fe)
	if err != nil {
		return nil, err
	}
	stats, err := p.Replay(rg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stats:    stats,
		Strategy: cfg.Strategy,
		Err:      g.Err(),
		schedule: p.Schedule,
		metrics:  p.Metrics,
	}
	res.countConversions(cfg)
	return res, nil
}

// PlanGraph builds the PTG task system cfg compiles to — what plan.Compile
// consumes and plan.Invalidate diffs. It exists for invalidation oracles
// (internal/plan's tests cross-check dirty closures against the graph's
// structure); normal callers use Compile/Replay/RunCached.
func PlanGraph(cfg Config) (runtime.Graph, error) {
	return newGraph(cfg)
}

// Compile runs cfg once through the PTG front-end and returns the compiled
// plan: the frozen task order, device placements, link bookings, broadcast
// shapes and conversion decisions of that factorization shape.
func Compile(cfg Config) (*plan.Plan, error) {
	_, p, err := compileFront(cfg, frontPTG)
	return p, err
}

// CompileDTD is Compile through the Dynamic Task Discovery front-end.
func CompileDTD(cfg Config) (*plan.Plan, error) {
	_, p, err := compileFront(cfg, frontDTD)
	return p, err
}

// Replay re-executes cfg's numeric bodies against a plan compiled by
// Compile for the same shape and precision signatures. The returned Result
// carries the plan's frozen Stats (schedule digest included) and, in
// numeric mode, cfg.Matrix holds the factor — bit-identical to a fresh Run.
func Replay(cfg Config, p *plan.Plan) (*Result, error) {
	return replayFront(cfg, p, frontPTG)
}

// ReplayDTD is Replay for plans compiled by CompileDTD.
func ReplayDTD(cfg Config, p *plan.Plan) (*Result, error) {
	return replayFront(cfg, p, frontDTD)
}

// RunCached is Run through a plan cache: the first run of a shape compiles
// a plan, subsequent runs with an unchanged precision map replay it (paying
// only the numeric bodies), a changed map is invalidated (the dirty
// downstream closure is measured and counted) and recompiled, and armed
// fault runs bypass the cache entirely — recovery needs live scheduling.
// A nil cache degrades to Run.
func RunCached(cfg Config, c *plan.Cache) (*Result, error) {
	return runCached(cfg, c, frontPTG, Run)
}

// RunCachedDTD is RunCached through the DTD front-end.
func RunCachedDTD(cfg Config, c *plan.Cache) (*Result, error) {
	return runCached(cfg, c, frontDTD, RunDTD)
}

func runCached(cfg Config, c *plan.Cache, fe frontEnd, live func(Config) (*Result, error)) (*Result, error) {
	if c == nil {
		return live(cfg)
	}
	if armedFaults(cfg) {
		c.Bypass()
		return live(cfg)
	}
	sig := planShapeSig(cfg, fe)
	if p := c.Lookup(sig); p != nil {
		if p.PrecSig == cfg.Maps.Signature() {
			c.Hit()
			return replayFront(cfg, p, fe)
		}
		// The precision map changed under this shape: measure the damage
		// (affected tasks + downstream closure), then recompile — timing is
		// coupled globally through device and link contention, so a partial
		// re-simulation would be unsound.
		rg, _, err := buildFront(cfg, fe)
		if err != nil {
			return nil, err
		}
		inv, err := p.Invalidate(rg)
		if err != nil {
			return nil, err
		}
		c.Invalidated(len(inv.Dirty))
	} else {
		c.Miss()
	}
	res, p, err := compileFront(cfg, fe)
	if err != nil {
		return nil, err
	}
	c.Store(p)
	return res, nil
}
