package bench

import (
	"fmt"
	"time"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	planpkg "geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
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
// cached loop pays one compile plus k−1 replays of the frozen factorization
// schedule — O(1×schedule + k×numerics). Phantom mode (no numeric bodies)
// isolates the scheduling cost itself. The two loops run back to back on
// the calling goroutine (the speedup column is a wall-clock ratio and means
// nothing if they time-share cores) and must agree on every schedule
// digest; a mismatch is returned as an error, making the ablation double as
// a self-check.
func PlanAblation(n, ts, k int, node *hw.NodeSpec) ([]PlanRow, error) {
	if k < 2 {
		return nil, fmt.Errorf("bench: plan ablation needs k >= 2 evaluations, got %d", k)
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
	cfg := cholesky.Config{
		Desc: desc, Maps: maps, Platform: plat, Strategy: cholesky.Auto,
	}

	// loop times k evaluations through cache (nil = fresh) and returns the
	// digest every one of them produced.
	loop := func(variant string, cache *planpkg.Cache) (wall float64, digest uint64, err error) {
		start := time.Now()
		for e := 0; e < k; e++ {
			res, err := cholesky.RunCached(cfg, cache)
			if err != nil {
				return 0, 0, fmt.Errorf("bench: plan ablation %s eval %d: %w", variant, e, err)
			}
			if e > 0 && res.Digest() != digest {
				return 0, 0, fmt.Errorf("bench: plan ablation: %s digest %016x != %016x at eval %d",
					variant, res.Digest(), digest, e)
			}
			digest = res.Digest()
		}
		return time.Since(start).Seconds(), digest, nil
	}
	freshWall, freshDigest, err := loop("fresh", nil)
	if err != nil {
		return nil, err
	}
	cache := planpkg.NewCache(nil)
	cachedWall, cachedDigest, err := loop("cached", cache)
	if err != nil {
		return nil, err
	}
	if cachedDigest != freshDigest {
		return nil, fmt.Errorf("bench: plan ablation: cached digest %016x != fresh %016x",
			cachedDigest, freshDigest)
	}
	s := cache.Stats()
	cached := PlanRow{
		Variant: "plan-cache", Evals: k, Wall: cachedWall,
		Hits: s.Hits, Misses: s.Misses, Invalidations: s.Invalidations,
	}
	if cachedWall > 0 {
		cached.Speedup = freshWall / cachedWall
	}
	return []PlanRow{{Variant: "fresh", Evals: k, Wall: freshWall, Speedup: 1}, cached}, nil
}
