package bench

// EngineMultiRank times the event loop on one multi-rank phantom
// factorization (N=196608, NT=96, 4 ranks × 2 GPUs — a Fig 12-scale shape;
// set GEOMPC_BENCH_FULL for the paper's strong-scaling N=798720, minutes
// per run) and cross-checks that every iteration reproduces the first
// run's digest. The committed series was recorded at -cpu 4 (see the
// Makefile bench target).

import (
	"os"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

func BenchmarkEngineMultiRank(b *testing.B) {
	n, ts, ranks := 196608, 2048, 4
	if os.Getenv("GEOMPC_BENCH_FULL") != "" {
		n = 798720
	}
	plat, err := runtime.NewPlatform(hw.SummitNode, ranks, 2)
	if err != nil {
		b.Fatal(err)
	}
	pg, qg := tile.SquarestGrid(ranks)
	desc, err := tile.NewDesc(n, ts, pg, qg)
	if err != nil {
		b.Fatal(err)
	}
	maps := precmap.New(precmap.Uniform(desc.NT, prec.FP16x32), 1e-2)
	cfg := cholesky.Config{
		Desc: desc, Maps: maps, Platform: plat, Strategy: cholesky.Auto,
	}
	var digest uint64
	var tasks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cholesky.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if digest == 0 {
			digest, tasks = res.Digest(), res.Stats.Tasks
		} else if res.Digest() != digest {
			b.Fatalf("digest %#016x differs from first run's %#016x", res.Digest(), digest)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(tasks*b.N)/sec, "tasks/s")
	}
}
