package bench

// PlanAblationMLE benchmarks: the fresh variant pays a full discrete-event
// simulation per evaluation; the cached variant compiles the plan once
// outside the timed region, so each iteration is one honest replay (ops
// walk + spec re-materialization). Their ratio in BENCH_kernels.json is
// the plan cache's per-evaluation win on the MLE-shaped phantom loop.

import (
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	planpkg "geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

func planBenchConfig(tb testing.TB) cholesky.Config {
	tb.Helper()
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	desc, err := tile.NewDesc(4096, 128, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	maps := precmap.New(ConvConfig{OffDiag: prec.FP16x32}.KernelMap(desc.NT), 1e-4)
	return cholesky.Config{Desc: desc, Maps: maps, Platform: plat, Strategy: cholesky.Auto}
}

func BenchmarkPlanAblationMLEFresh(b *testing.B) {
	cfg := planBenchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cholesky.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanAblationMLECached(b *testing.B) {
	cfg := planBenchConfig(b)
	cache := planpkg.NewCache(nil)
	if _, err := cholesky.RunCached(cfg, cache); err != nil { // compile outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cholesky.RunCached(cfg, cache); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := cache.Stats(); s.Hits != int64(b.N) || s.Misses != 1 {
		b.Fatalf("cache stats %+v after %d timed iterations", s, b.N)
	}
}

// TestPlanAblation exercises the geompc ablation table end to end and checks
// its built-in digest self-verification plus the expected counter shape.
func TestPlanAblation(t *testing.T) {
	rows, err := PlanAblation(1024, 128, 6, hw.SummitNode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Variant != "fresh" || rows[1].Variant != "plan-cache" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if rows[1].Misses != 1 || rows[1].Hits != 5 || rows[1].Invalidations != 0 {
		t.Fatalf("cached loop counters: %+v", rows[1])
	}
	if rows[1].Speedup <= 0 {
		t.Fatalf("non-positive speedup %g", rows[1].Speedup)
	}
}

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
				Desc: desc, Maps: precmap.New(p.cfg.KernelMap(desc.NT), 1e-2), Platform: plat, Strategy: p.strat,
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
