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
// except the precision maps and the numeric tile contents: tiling, process
// grid, platform, conversion strategy, scheduling policy, broadcast
// topology, pipeline depth and front-end. Two configs with equal shape
// signatures and equal map signatures produce bit-identical schedules, so a
// plan compiled under one replays the other.
func planShapeSig(cfg Config, fe frontEnd) uint64 {
	var d obs.Digest
	d.WriteString("geompc/plan/v1")
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

// buildFront constructs the task system for the chosen front-end: the
// runtime.Graph handed to the engine plus the underlying *graph (which owns
// the converted operands). For PTG the two coincide.
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

// runFront runs cfg through the chosen front-end and the shared cached-run
// flow (plan.Cache.Run); a nil cache is a plain live engine run.
func runFront(cfg Config, c *plan.Cache, fe frontEnd) (*Result, error) {
	var g *graph
	out, err := c.Run(
		func() (uint64, uint64) { return planShapeSig(cfg, fe), cfg.Maps.Signature() },
		func() (rg runtime.Graph, err error) {
			rg, g, err = buildFront(cfg, fe)
			return rg, err
		},
		cfg.Engine)
	if err != nil {
		return nil, err
	}
	g.releaseOperands()
	return newResult(cfg, out), nil
}

// compileFront runs cfg once, live, and returns the reusable plan.
func compileFront(cfg Config, fe frontEnd) (*plan.Plan, error) {
	rg, g, err := buildFront(cfg, fe)
	if err != nil {
		return nil, err
	}
	p, err := plan.Compile(cfg.Engine(rg), planShapeSig(cfg, fe), cfg.Maps.Signature())
	if err != nil {
		return nil, err
	}
	g.releaseOperands()
	return p, nil
}

// replayFront re-executes only the numeric bodies of cfg against p's frozen
// schedule.
func replayFront(cfg Config, p *plan.Plan, fe frontEnd) (*Result, error) {
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
	out, err := p.Replay(rg)
	if err != nil {
		return nil, err
	}
	g.releaseOperands()
	return newResult(cfg, out), nil
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
func Compile(cfg Config) (*plan.Plan, error) { return compileFront(cfg, frontPTG) }

// CompileDTD is Compile through the Dynamic Task Discovery front-end.
func CompileDTD(cfg Config) (*plan.Plan, error) { return compileFront(cfg, frontDTD) }

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

// RunCached is Run through a plan cache (see plan.Cache.Run for the
// miss/hit/invalidate flow). A nil cache runs live.
func RunCached(cfg Config, c *plan.Cache) (*Result, error) {
	return runFront(cfg, c, frontPTG)
}

// RunCachedDTD is RunCached through the DTD front-end.
func RunCachedDTD(cfg Config, c *plan.Cache) (*Result, error) {
	return runFront(cfg, c, frontDTD)
}
