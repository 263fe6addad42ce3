// Benchmarks regenerating every table and figure of the paper's evaluation,
// one testing.B function per artifact. Each prints the same rows/series the
// paper reports, at sizes that finish in seconds; the cmd/ tools run the
// same drivers at full scale (see EXPERIMENTS.md for recorded outputs).
//
//	go test -bench=. -benchmem
package geompc_test

import (
	"fmt"
	"strings"
	"testing"

	"geompc/internal/bench"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// BenchmarkTable1Peaks prints Table I: peak Tflop/s per precision per GPU.
func BenchmarkTable1Peaks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table1()
		if i == 0 {
			b.Log("\n" + renderTable(t))
		}
	}
}

// BenchmarkFig1GEMM runs the Fig 1 GEMM study: real emulated-precision
// accuracy plus modeled throughput per GPU generation.
func BenchmarkFig1GEMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		acc := bench.GemmAccuracy([]int{64, 128, 256}, 42)
		perf := bench.GemmPerformance([]*hw.GPUSpec{hw.V100, hw.A100, hw.H100}, []int{2048, 8192, 32768})
		if i == 0 {
			t := bench.NewTable("Fig 1 accuracy", "N", "prec", "relerr")
			for _, r := range acc {
				t.Add(r.N, r.Prec.String(), fmt.Sprintf("%.2e", r.Err))
			}
			b.Log("\n" + renderTable(t))
			tp := bench.NewTable("Fig 1 performance", "GPU", "N", "prec", "Tflop/s")
			for _, r := range perf {
				tp.Add(r.GPU, r.N, r.Prec.String(), r.Tflops)
			}
			b.Log("\n" + renderTable(tp))
		}
	}
}

// BenchmarkTable2Motion prints Table II: tile transfer and GEMM times on a
// V100 per precision.
func BenchmarkTable2Motion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table2([]int{2048, 4096, 6144, 8192, 10240})
		if i == 0 {
			t := bench.NewTable("Table II (ms)", "row", "2048", "4096", "6144", "8192", "10240")
			for _, r := range rows {
				t.Add(r.Label, r.TimeMs[0], r.TimeMs[1], r.TimeMs[2], r.TimeMs[3], r.TimeMs[4])
			}
			b.Log("\n" + renderTable(t))
		}
	}
}

// BenchmarkFig5Accuracy2D runs a scaled-down Fig 5 panel: 2D Monte-Carlo
// parameter estimation across accuracy levels.
func BenchmarkFig5Accuracy2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := bench.Fig5Cases()[0] // 2D-sqexp weak
		res, err := bench.AccuracyStudyEvals(c, []float64{0, 1e-9, 1e-4}, 4, 144, 48, 7, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + renderAccuracy(res))
		}
	}
}

// BenchmarkFig6Accuracy3D runs a scaled-down Fig 6 panel: 3D sqexp.
func BenchmarkFig6Accuracy3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := bench.Fig6Cases()[1] // 3D-sqexp strong
		res, err := bench.AccuracyStudyEvals(c, []float64{0, 1e-8}, 4, 125, 48, 7, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + renderAccuracy(res))
		}
	}
}

// BenchmarkFig7PrecisionMap computes the per-application tile-precision
// fractions (sampled norms, no matrix materialization).
func BenchmarkFig7PrecisionMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.NewTable("Fig 7", "app", "FP64%", "FP32%", "FP16_32%", "FP16%")
		for _, app := range bench.Apps() {
			res, err := bench.PrecisionMap(app, 65536, 2048, 128, 3)
			if err != nil {
				b.Fatal(err)
			}
			f := res.Fractions
			t.Add(app.Name, 100*f[prec.FP64], 100*f[prec.FP32], 100*f[prec.FP16x32], 100*f[prec.FP16])
		}
		if i == 0 {
			b.Log("\n" + renderTable(t))
		}
	}
}

// BenchmarkFig8STCvsTTC runs the single-GPU conversion-strategy sweep on
// the V100 model.
func BenchmarkFig8STCvsTTC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.ConvSweepOpts(hw.SummitNode, 1, 1, []int{32768, 65536}, 2048, "", bench.SchedOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + renderConv(rows))
		}
	}
}

// BenchmarkFig9Occupancy traces H100 occupancy for the four configurations.
func BenchmarkFig9Occupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.NewTable("Fig 9", "config", "time(s)", "mean occ %")
		for _, v := range bench.Baselines() {
			run, err := bench.EnergyRunOne(hw.HaxaneNode, v, 32768, 2048, 20, 1, false)
			if err != nil {
				b.Fatal(err)
			}
			var avg float64
			for _, o := range run.Occupancy {
				avg += o.V
			}
			t.Add(v.Name, run.Time, 100*avg/float64(len(run.Occupancy)))
		}
		if i == 0 {
			b.Log("\n" + renderTable(t))
		}
	}
}

// BenchmarkFig10Energy compares FP64 vs adaptive MP energy on all three
// GPU generations.
func BenchmarkFig10Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.NewTable("Fig 10", "GPU", "config", "time(s)", "kJ", "Gflops/W")
		for _, nd := range []*hw.NodeSpec{hw.SummitNode, hw.GuyotNode, hw.HaxaneNode} {
			for _, v := range bench.EnergyVariants() {
				run, err := bench.EnergyRunOne(nd, v, 32768, 2048, 10, 1, false)
				if err != nil {
					b.Fatal(err)
				}
				t.Add(nd.GPU.Name, run.Label, run.Time, run.EnergyJ/1e3, run.GflopsPerW)
			}
		}
		if i == 0 {
			b.Log("\n" + renderTable(t))
		}
	}
}

// BenchmarkFig11Node runs the full-node (6×V100) conversion sweep.
func BenchmarkFig11Node(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.ConvSweepOpts(hw.SummitNode, 1, 6, []int{65536}, 2048, "", bench.SchedOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + renderConv(rows))
		}
	}
}

// BenchmarkFig12Weak runs weak scaling over 1..16 Summit nodes.
func BenchmarkFig12Weak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.WeakScaling([]int{1, 4, 16}, 49152, 2048, bench.SweepOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + renderScale(rows))
		}
	}
}

// BenchmarkFig12Strong runs strong scaling at fixed N.
func BenchmarkFig12Strong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.StrongScaling([]int{1, 4, 16}, 131072, 2048, bench.SweepOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + renderScale(rows))
		}
	}
}

// BenchmarkFig12MP runs the MP-vs-FP64 comparison on a multi-node platform.
func BenchmarkFig12MP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.MPEffect(4, []int{98304}, 2048, bench.SweepOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + renderScale(rows))
		}
	}
}

// BenchmarkEngineThroughput measures raw phantom-mode task throughput —
// the figure that bounds full-scale Fig 12 reproduction time.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.StrongScaling([]int{4}, 131072, 2048, bench.SweepOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	nt := 131072 / 2048
	tasks := nt * (nt + 1) * (nt + 2) / 6
	b.ReportMetric(float64(tasks*b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// maternTrajectory is four θ = (σ², β, ν) the optimizer asks for on the
// end-to-end benchmark's fit_matern workload (seed 101, evaluations 1, 28,
// 48 and 66): the lower-bound start, two points along the valley and one
// near the budget's end. One operation of the two benchmarks below visits
// all four, so ns/op does not depend on b.N.
var maternTrajectory = [][]float64{
	{0.01, 0.01, 0.01},
	{0.8576, 0.06649, 0.01878},
	{0.9814, 0.3271, 0.1118},
	{0.9814, 0.04486, 0.8153},
}

// BenchmarkCovTileMatern is the covariance generation of four likelihood
// evaluations as a fit pays for it, on one core: bind each θ once over the
// locations' span (panel builds included), then fill every lower tile of
// the 400-point, ts = 64 matrix through geo.FillTile (the row path), one θ
// after the other.
func BenchmarkCovTileMatern(b *testing.B) {
	benchCovTile(b, geo.Matern{Dimension: 2}, maternTrajectory, 400, 101)
}

// benchCovTile fills the lower tiles of Σ(θ) over n locations (drawn from
// seed) at ts = 64, binding k once per θ of trajectory over the locations'
// span (computed once, as mle.Problem does), and reports the time per entry.
func benchCovTile(b *testing.B, k geo.Kernel, trajectory [][]float64, n int, seed uint64) {
	locs := geo.GenerateLocations(n, 2, stats.NewRNG(seed, 0))
	span := locSpan(locs)
	desc, err := tile.NewDesc(len(locs), 64, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	mat := tile.NewMatrix(desc, false)
	entries := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, theta := range trajectory {
			bk := k.Bind(theta, span)
			mat.Fill(func(t *tile.Tile, r0, c0 int) {
				geo.FillTile(bk, locs, r0, c0, t.M, t.N, 1e-8, t.Data, t.N)
				entries += t.M * t.N
			})
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
}

// sqexpTrajectory is four θ = (σ², β) the optimizer asks for on the
// end-to-end benchmark's fit_sqexp workload (-seed 11: the first dataset,
// evaluations 1, 7, 14 and 20): the lower-bound start, two points on the
// way and one near the budget's end.
var sqexpTrajectory = [][]float64{
	{0.01, 0.01},
	{0.07293, 0.01142},
	{0.03761, 0.03761},
	{0.2402, 0.08326},
}

// BenchmarkCovTileSqExp is BenchmarkCovTileMatern for the
// squared-exponential kernel, on fit_sqexp's 1,600 locations at ts = 64:
// bind each θ once, fill every lower tile through geo.FillTile.
func BenchmarkCovTileSqExp(b *testing.B) {
	benchCovTile(b, geo.SqExp{Dimension: 2}, sqexpTrajectory, 1600, 176)
}

// locSpan is geo.Span(locs), computed once, as a span for Kernel.Bind.
func locSpan(locs []geo.Point) func() (lo, hi float64) {
	lo, hi := geo.Span(locs, locs)
	return func() (float64, float64) { return lo, hi }
}

var maternBoundSink float64

// BenchmarkMaternBound is the bound Matérn kernel alone: bind each θ once
// and evaluate it at the n(n−1)/2 pair distances of the same 400 locations
// — no distance computation, no tile stores.
func BenchmarkMaternBound(b *testing.B) {
	locs := geo.GenerateLocations(400, 2, stats.NewRNG(101, 0))
	span := locSpan(locs)
	var hs []float64
	for i := range locs {
		for j := 0; j < i; j++ {
			hs = append(hs, locs[i].Dist(locs[j]))
		}
	}
	k := geo.Matern{Dimension: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, theta := range maternTrajectory {
			bk := k.Bind(theta, span)
			for _, h := range hs {
				maternBoundSink += bk.Cov(h)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(maternTrajectory)*len(hs)), "ns/entry")
}

var (
	maternBindSink geo.BoundKernel
	covMatrixSink  []float64
)

// BenchmarkMaternBind is what a likelihood evaluation pays before its fill
// on fit_matern's 400 locations: bind each θ of maternTrajectory over the
// locations' span, which builds every panel the fill will read in one
// batch of Bessel lanes. It reports the time per bind.
func BenchmarkMaternBind(b *testing.B) {
	span := locSpan(geo.GenerateLocations(400, 2, stats.NewRNG(101, 0)))
	k := geo.Matern{Dimension: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, theta := range maternTrajectory {
			maternBindSink = k.Bind(theta, span)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(maternTrajectory)), "ns/bind")
}

// BenchmarkCovMatrixMatern is the dense Σ(θ) that geo.SimulateField
// factorizes to draw fit_matern's dataset: 400 locations (seed 101), θ = (1,
// 0.03, 1), every entry with the direct evaluator's bits (the kernel bound
// over geo.NoSpan), through the direct row path and its Bessel lanes. It
// reports the time per entry of the lower triangle.
func BenchmarkCovMatrixMatern(b *testing.B) {
	locs := geo.GenerateLocations(400, 2, stats.NewRNG(101, 0))
	k := geo.Matern{Dimension: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		covMatrixSink = geo.CovMatrix(locs, k, []float64{1, 0.03, 1}, 0)
	}
	n := len(locs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*(n-1)/2), "ns/entry")
}

// --- rendering helpers ---

func renderTable(t *bench.Table) string {
	var sb strings.Builder
	t.Write(&sb)
	return sb.String()
}

func renderAccuracy(res []bench.AccuracyResult) string {
	t := bench.NewTable("estimates", "u_req", "param", "truth", "median", "q1", "q3")
	for _, r := range res {
		u := "exact"
		if r.UReq > 0 {
			u = fmt.Sprintf("%.0e", r.UReq)
		}
		t.Add(u, r.Param, r.Truth, r.Summary.Median, r.Summary.Q1, r.Summary.Q3)
	}
	return renderTable(t)
}

func renderConv(rows []bench.ConvRow) string {
	t := bench.NewTable("conversion sweep", "config", "strategy", "N", "Tflop/s", "%peak")
	for _, r := range rows {
		t.Add(r.Config, r.Strategy, r.N, r.Tflops, r.PctPeak)
	}
	return renderTable(t)
}

func renderScale(rows []bench.ScaleRow) string {
	t := bench.NewTable("scaling", "config", "nodes", "GPUs", "N", "Tflop/s", "speedup")
	for _, r := range rows {
		t.Add(r.Config, r.Nodes, r.GPUs, r.N, r.Tflops, r.Speedup)
	}
	return renderTable(t)
}
