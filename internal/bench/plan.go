package bench

import (
	"fmt"
	"time"

	"geompc/internal/hw"
	planpkg "geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/solver"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// PlanRow is one line of the plan-cache ablation: the wall-clock of a
// k-evaluation repeated-factorization loop (the MLE inner loop's shape),
// fresh vs plan-cached.
type PlanRow struct {
	Variant string
	Evals   int
	// Wall is host wall-clock seconds for the whole loop (this is a real
	// measurement of the simulator itself, not simulated time).
	Wall float64
	// Speedup of this variant over the fresh loop (fresh = 1).
	Speedup float64
	// Cache counter snapshot after the loop (zero for the fresh variant).
	Hits, Misses, Invalidations int64
}

// PlanAblation measures what the compiled-plan cache buys a repeated
// workload: the fresh loop pays k full discrete-event simulations, the
// cached loop pays one compile plus k−1 replays — O(1×schedule +
// k×numerics). Phantom mode (no numeric bodies) isolates the scheduling
// cost itself. The two loops must agree on every schedule digest; a
// mismatch is returned as an error, making the ablation double as a
// self-check.
func PlanAblation(n, ts, k int, node *hw.NodeSpec) ([]PlanRow, error) {
	return PlanAblationOpts(n, ts, k, node, SweepOpts{})
}

// PlanAblationOpts is PlanAblation routed through the sweep executor: a
// two-point grid (the fresh loop and the cached loop), each running its
// k-evaluation loop serially inside its point. The digest cross-check and
// the speedup column are computed after the sweep, so the rows carry the
// same self-check at any worker count — though with Workers > 0 the two
// variants time-share cores and the wall-clock comparison loses meaning;
// keep this family serial when the speedup column matters.
func PlanAblationOpts(n, ts, k int, node *hw.NodeSpec, so SweepOpts) ([]PlanRow, error) {
	return PlanAblationBackend(n, ts, k, node, "direct", so)
}

// PlanAblationBackend is the ablation through a named solver backend:
// "direct" replays one frozen factorization schedule per evaluation
// (bit-identical to the historical loop); "cg" replays one compiled plan
// per distinct chunk precision schedule, so the counters show the
// hit/miss mix an iterative MLE loop would see.
func PlanAblationBackend(n, ts, k int, node *hw.NodeSpec, backend string, so SweepOpts) ([]PlanRow, error) {
	if k < 2 {
		return nil, fmt.Errorf("bench: plan ablation needs k >= 2 evaluations, got %d", k)
	}
	be, err := solver.ByName(backend)
	if err != nil {
		return nil, err
	}
	plat, err := runtime.NewPlatform(node, 1, 1)
	if err != nil {
		return nil, err
	}
	desc, err := tile.NewDesc(n, ts, 1, 1)
	if err != nil {
		return nil, err
	}
	maps := precmap.New(ConvConfig{OffDiag: prec.FP16x32}.KernelMap(desc.NT), 1e-4)
	cfg := solver.Config{
		Desc: desc, Maps: maps, Platform: plat, Strategy: solver.Auto,
	}

	type variant struct {
		row    PlanRow
		digest uint64
	}
	outs, err := sweep.Run(2, so.sweepOptions(), func(i int, ctx *sweep.Context) (variant, error) {
		if i == 0 {
			var digest uint64
			start := time.Now()
			for e := 0; e < k; e++ {
				res, err := be.Solve(cfg)
				if err != nil {
					return variant{}, fmt.Errorf("bench: plan ablation fresh eval %d: %w", e, err)
				}
				digest = res.Digest()
			}
			wall := time.Since(start).Seconds()
			return variant{row: PlanRow{Variant: "fresh", Evals: k, Wall: wall, Speedup: 1}, digest: digest}, nil
		}
		cache := planpkg.NewCache(ctx.Reg)
		var digest uint64
		start := time.Now()
		for e := 0; e < k; e++ {
			res, err := be.SolveCached(cfg, cache)
			if err != nil {
				return variant{}, fmt.Errorf("bench: plan ablation cached eval %d: %w", e, err)
			}
			if e == 0 {
				digest = res.Digest()
			} else if res.Digest() != digest {
				return variant{}, fmt.Errorf("bench: plan ablation: cached digest %016x != %016x at eval %d",
					res.Digest(), digest, e)
			}
		}
		wall := time.Since(start).Seconds()
		s := cache.Stats()
		return variant{
			row: PlanRow{
				Variant: "plan-cache", Evals: k, Wall: wall,
				Hits: s.Hits, Misses: s.Misses, Invalidations: s.Invalidations,
			},
			digest: digest,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if outs[0].digest != outs[1].digest {
		return nil, fmt.Errorf("bench: plan ablation: cached digest %016x != fresh %016x",
			outs[1].digest, outs[0].digest)
	}
	fresh, cached := outs[0].row, outs[1].row
	if cached.Wall > 0 {
		cached.Speedup = fresh.Wall / cached.Wall
	}
	return []PlanRow{fresh, cached}, nil
}

// ConvSweepCached is ConvSweepOpts routed through a compiled-plan cache.
// The sweep alternates precision maps over a handful of schedule shapes
// (strategy × size), so with one plan slot per shape it exercises the
// invalidation path far more than the replay path — every run either
// misses, replays, or measures a dirty closure and recompiles, and the
// cache counters expose that mix (the convbench -plan-cache mode prints
// them). Armed fault plans bypass the cache per run. Rows are identical to
// a fresh sweep's — the cache never changes results, only how they are
// obtained.
func ConvSweepCached(node *hw.NodeSpec, ranks, gpusPerRank int, sizes []int, ts int, faultSpec string, so SchedOpts, cache *planpkg.Cache) ([]ConvRow, error) {
	return convSweep(node, ranks, gpusPerRank, sizes, ts, faultSpec, so, cache)
}
