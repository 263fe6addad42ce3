package bench

import "testing"

// BenchmarkFig12WeakStep runs one weak-scaling step of Fig 12a (16 Summit
// nodes, N grown from a 49,152 single-node base → N=196,608, NT=96,
// ~152k phantom tasks) — the engine-throughput point of the benchmark
// trajectory in BENCH_kernels.json.
func BenchmarkFig12WeakStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := WeakScaling([]int{16}, 196608, 2048, SweepOpts{})
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}
