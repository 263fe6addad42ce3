package cholesky

import (
	"encoding/binary"
	"hash/fnv"

	"geompc/internal/plan"
	"geompc/internal/runtime"
)

// planShapeSig hashes everything that determines a factorization's schedule
// except the precision maps and the numeric tile contents: tiling (NT is
// derived from N and TS), process grid, platform, conversion strategy,
// pipeline depth and whether the run is traced. Two configs with equal
// shape signatures and equal map signatures produce equal Stats, timeline
// included, so a plan compiled under one replays the other.
func planShapeSig(cfg Config) uint64 {
	la := 2
	if cfg.Lookahead > 0 {
		la = cfg.Lookahead
	}
	b := []byte("geompc/plan/v1")
	for _, v := range []int{cfg.Desc.N, cfg.Desc.TS, cfg.Desc.P, cfg.Desc.Q, cfg.Platform.Ranks, cfg.Platform.DevPerRank} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = append(append(b, cfg.Platform.Node.Name...), cfg.Platform.Node.GPU.Name...)
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.Strategy))
	b = binary.LittleEndian.AppendUint64(b, uint64(la))
	if cfg.Trace || cfg.Audit {
		b = append(b, "trace"...)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// PlanGraph builds the task system cfg compiles to, without running it.
func PlanGraph(cfg Config) (runtime.Graph, error) {
	return newGraph(cfg)
}

// RunCached is Run through a plan cache (see plan.Cache.Run for the
// miss/hit/invalidation flow); a nil cache is Run. It is the only caller of
// internal/plan, kept for the frozen benchmark/ tree: no fit, study or
// figure passes a cache.
func RunCached(cfg Config, c *plan.Cache) (*Result, error) {
	if c == nil {
		return Run(cfg)
	}
	g, err := newGraph(cfg)
	if err != nil {
		return nil, err
	}
	p, bodyErr, err := c.Run(planShapeSig(cfg), cfg.Maps.Signature(), g, cfg.Platform, cfg.Options)
	g.releaseOperands()
	if err != nil {
		return nil, err
	}
	return newResult(g, p.Stats, bodyErr), nil
}
