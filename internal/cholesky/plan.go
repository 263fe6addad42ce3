package cholesky

import (
	"geompc/internal/obs"
	"geompc/internal/plan"
	"geompc/internal/runtime"
)

// planShapeSig hashes everything that determines a factorization's schedule
// except the precision maps and the numeric tile contents: tiling (NT is
// derived from N and TS), process grid, platform, conversion strategy and
// pipeline depth. Two configs with equal shape signatures and equal map
// signatures produce bit-identical schedules, so a plan compiled under one
// replays the other.
func planShapeSig(cfg Config) uint64 {
	var d obs.Digest
	d.WriteString("geompc/plan/v1")
	d.WriteInt64(int64(cfg.Desc.N))
	d.WriteInt64(int64(cfg.Desc.TS))
	d.WriteInt64(int64(cfg.Desc.P))
	d.WriteInt64(int64(cfg.Desc.Q))
	d.WriteInt64(int64(cfg.Platform.Ranks))
	d.WriteInt64(int64(cfg.Platform.DevPerRank))
	d.WriteString(cfg.Platform.Node.Name)
	d.WriteString(cfg.Platform.Node.GPU.Name)
	d.WriteInt64(int64(cfg.Strategy))
	la := 2
	if cfg.Lookahead > 0 {
		la = cfg.Lookahead
	}
	d.WriteInt64(int64(la))
	return d.Sum()
}

// PlanGraph builds the task system cfg compiles to, without running it.
func PlanGraph(cfg Config) (runtime.Graph, error) {
	return newGraph(cfg)
}

// RunCached is Run through a plan cache (see plan.Cache.Run for the
// miss/hit/invalidation flow). A nil cache runs live.
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
