package cholesky

import (
	"fmt"

	"geompc/internal/obs"
	"geompc/internal/plan"
	"geompc/internal/runtime"
)

// planShapeSig hashes everything that determines a factorization's schedule
// except the precision maps and the numeric tile contents: tiling, process
// grid, platform, conversion strategy, scheduling policy, broadcast
// topology and pipeline depth. Two configs with equal shape signatures and
// equal map signatures produce bit-identical schedules, so a plan compiled
// under one replays the other.
func planShapeSig(cfg Config) uint64 {
	var d obs.Digest
	d.WriteString("geompc/plan/v1")
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

// PlanGraph builds the task system cfg compiles to — what plan.Compile
// consumes and plan.Invalidate diffs. It exists for invalidation oracles
// (internal/plan's tests cross-check dirty closures against the graph's
// structure); normal callers use Compile/Replay/RunCached.
func PlanGraph(cfg Config) (runtime.Graph, error) {
	return newGraph(cfg)
}

// Compile runs cfg once, live, and returns the compiled plan: the frozen
// task order, device placements, link bookings, broadcast shapes and
// conversion decisions of that factorization shape.
func Compile(cfg Config) (*plan.Plan, error) {
	g, err := newGraph(cfg)
	if err != nil {
		return nil, err
	}
	p, err := plan.Compile(cfg.Engine(g), planShapeSig(cfg), cfg.Maps.Signature())
	if err != nil {
		return nil, err
	}
	g.releaseOperands()
	return p, nil
}

// Replay re-executes cfg's numeric bodies against a plan compiled by
// Compile for the same shape and precision signatures. The returned Result
// carries the plan's frozen Stats (schedule digest included) and, in
// numeric mode, cfg.Matrix holds the factor — bit-identical to a fresh Run.
func Replay(cfg Config, p *plan.Plan) (*Result, error) {
	if sig := planShapeSig(cfg); sig != p.Sig {
		return nil, fmt.Errorf("cholesky: plan shape signature %016x does not match config %016x", p.Sig, sig)
	}
	if ps := cfg.Maps.Signature(); ps != p.PrecSig {
		return nil, fmt.Errorf("cholesky: plan precision signature %016x does not match maps %016x (invalidate and recompile)", p.PrecSig, ps)
	}
	g, err := newGraph(cfg)
	if err != nil {
		return nil, err
	}
	out, err := p.Replay(g)
	if err != nil {
		return nil, err
	}
	g.releaseOperands()
	return newResult(cfg, out), nil
}

// RunCached is Run through a plan cache (see plan.Cache.Run for the
// miss/hit/invalidate flow). A nil cache runs live.
func RunCached(cfg Config, c *plan.Cache) (*Result, error) {
	var g *graph
	out, err := c.Run(
		func() (uint64, uint64) { return planShapeSig(cfg), cfg.Maps.Signature() },
		func() (runtime.Graph, error) {
			var err error
			g, err = newGraph(cfg)
			return g, err
		},
		cfg.Engine)
	if err != nil {
		return nil, err
	}
	g.releaseOperands()
	return newResult(cfg, out), nil
}
