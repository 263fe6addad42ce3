package bench

// The SweepParallel pair measures what the deterministic sweep executor
// buys on multi-core hosts: the same 12-point conversion-sweep grid
// (4 configs x strategies x 2 sizes, phantom NT=32/48) run on a one-worker
// pool (Serial — the name is kept for BENCH_kernels.json series
// continuity) and on a 4-worker pool. Run with -cpu 4 (see the Makefile
// bench target) — on a single-core host four workers cannot beat one and
// the pair simply documents the executor's overhead.

import (
	"testing"

	"geompc/internal/hw"
)

func sweepParallelGrid(b *testing.B, workers int) {
	sizes := []int{65536, 98304}
	const ts = 2048
	so := SchedOpts{SweepOpts: SweepOpts{Workers: workers}}
	points := len(convGrid(sizes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ConvSweepOpts(hw.SummitNode, 1, 2, sizes, ts, "", so)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != points {
			b.Fatalf("%d rows, want %d", len(rows), points)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(points*b.N)/sec, "points/sec")
	}
}

func BenchmarkSweepParallelSerial(b *testing.B) { sweepParallelGrid(b, 0) }

func BenchmarkSweepParallelW4(b *testing.B) { sweepParallelGrid(b, 4) }
