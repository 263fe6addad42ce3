package cholesky

import (
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// phantomNT64 is the benchmark-trajectory configuration: a small 4-node,
// 24-GPU platform at NT=64 (45,760 tasks), no numeric bodies.
func phantomNT64() (cfg Config, tasks int) {
	nt, ts := 64, 2048
	d, _ := tile.NewDesc(nt*ts, ts, 2, 2)
	maps := precmap.New(precmap.UniformAll(nt, prec.FP64), 0)
	plat, _ := runtime.NewPlatform(hw.SummitNode, 4, 6)
	return Config{Desc: d, Maps: maps, Platform: plat}, nt * (nt + 1) * (nt + 2) / 6
}

// BenchmarkPhantomNT64 measures phantom-mode overhead per task — the
// benchmark-trajectory point tracked in BENCH_kernels.json (allocs/op is the
// headline number: phantom task dispatch should be allocation-free in steady
// state).
func BenchmarkPhantomNT64(b *testing.B) {
	cfg, tasks := phantomNT64()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// TestPhantomAllocsPerTask is the allocation guard on the engine's hot path
// (event push/pop, ready queues, TaskSpec freelist, residency tables, graph
// emit): a whole phantom run may allocate its per-run tables and warm its
// freelists, which comes to 0.230 allocations per task at this size, but
// nothing per event or per publishing task — one allocation per push alone
// would add 1–2 per task, and a consumer visitor that escapes to the heap on
// every POTRF and TRSM emit reads 0.584.
func TestPhantomAllocsPerTask(t *testing.T) {
	cfg, tasks := phantomNT64()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	perTask := allocs / float64(tasks)
	t.Logf("%.0f allocs per run, %.3f per task", allocs, perTask)
	if perTask > 0.55 {
		t.Errorf("phantom NT=64 run allocates %.3f per task (%.0f per run), want <= 0.55", perTask, allocs)
	}
}

// BenchmarkPhantomLarge measures the engine's phantom-mode task throughput
// on a 24-node/144-GPU platform with NT=120 (~300k tasks) — the figure that
// bounds how long the Summit-scale Fig 12 simulations take.
func BenchmarkPhantomLarge(b *testing.B) {
	nt, ts := 120, 2048
	d, _ := tile.NewDesc(nt*ts, ts, 4, 6)
	maps := precmap.New(precmap.UniformAll(nt, prec.FP64), 0)
	plat, _ := runtime.NewPlatform(hw.SummitNode, 24, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Desc: d, Maps: maps, Platform: plat})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(float64(nt*(nt+1)*(nt+2)/6)/b.Elapsed().Seconds()*float64(b.N), "tasks/s")
}
