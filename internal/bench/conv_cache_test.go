package bench

import (
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	planpkg "geompc/internal/plan"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// TestConvSweepCachedMatchesFresh: the conversion sweep's grid run point by
// point through one plan cache reproduces the sweep's rows. The grid
// alternates maps over few shapes, so with one plan slot per shape every run
// is a miss or an invalidation+recompile — the counters must balance the
// row count exactly.
func TestConvSweepCachedMatchesFresh(t *testing.T) {
	sizes := []int{512}
	const ts = 128
	fresh, err := ConvSweepOpts(hw.SummitNode, 1, 1, sizes, ts, "", SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache := planpkg.NewCache(nil)
	for pass := 0; pass < 2; pass++ {
		for i, p := range convGrid(sizes) {
			desc, err := tile.NewDesc(p.n, ts, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cholesky.RunCached(cholesky.Config{
				Desc: desc, Maps: precmap.New(p.v.Map(0, 0)(desc), 0), Platform: plat, Strategy: p.strat,
			}, cache)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest() != fresh[i].Digest || res.Stats.Makespan != fresh[i].Time || res.Stats.BytesH2D != fresh[i].BytesH2D {
				t.Fatalf("pass %d row %d diverged: fresh=%+v cached digest=%016x stats=%+v", pass, i, fresh[i], res.Digest(), res.Stats)
			}
		}
	}
	s := cache.Stats()
	if s.Hits+s.Misses+s.Invalidations != int64(2*len(fresh)) || s.Invalidations == 0 {
		t.Fatalf("sweep cache stats %+v for %d rows per pass", s, len(fresh))
	}
}
