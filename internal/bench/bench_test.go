package bench

import (
	"math"
	"strings"
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

func TestGemmAccuracyShape(t *testing.T) {
	rows := GemmAccuracy([]int{32, 64}, 1)
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	byKey := map[[2]any]float64{}
	for _, r := range rows {
		byKey[[2]any{r.N, r.Prec}] = r.Err
	}
	for _, n := range []int{32, 64} {
		if !(byKey[[2]any{n, prec.FP32}] < byKey[[2]any{n, prec.FP16x32}]) {
			t.Errorf("n=%d: FP32 error not below FP16_32", n)
		}
		if !(byKey[[2]any{n, prec.FP16x32}] < byKey[[2]any{n, prec.FP16}]) {
			t.Errorf("n=%d: FP16_32 error not below FP16", n)
		}
	}
	// Error grows with k for FP16 accumulation.
	if !(byKey[[2]any{64, prec.FP16}] > byKey[[2]any{32, prec.FP16}]) {
		t.Error("FP16 error did not grow with size")
	}
}

func TestGemmPerformanceShape(t *testing.T) {
	rows := GemmPerformance([]*hw.GPUSpec{hw.V100, hw.A100, hw.H100}, []int{2048, 8192})
	perf := map[[3]any]float64{}
	for _, r := range rows {
		perf[[3]any{r.GPU, r.N, r.Prec}] = r.Tflops
		if r.PeakPct <= 0 || r.PeakPct > 100.01 {
			t.Errorf("%s %v n=%d: peak pct %g out of range", r.GPU, r.Prec, r.N, r.PeakPct)
		}
	}
	// FP16 faster than FP32 faster than (or equal on A100/H100) FP64.
	for _, g := range []string{"V100", "A100", "H100"} {
		if !(perf[[3]any{g, 8192, prec.FP16}] > perf[[3]any{g, 8192, prec.FP32}]) {
			t.Errorf("%s: FP16 not above FP32", g)
		}
	}
	// V100 must not report TF32/BF16 rows.
	for _, r := range rows {
		if r.GPU == "V100" && (r.Prec == prec.TF32 || r.Prec == prec.BF16x32) {
			t.Errorf("V100 reported unsupported precision %v", r.Prec)
		}
	}
	// Near-peak at large size (Fig 1's observation).
	if p := perf[[3]any{"V100", 8192, prec.FP64}]; p < 0.9*7.8 {
		t.Errorf("V100 FP64 at 8192: %g Tflop/s, want ≥ 90%% of 7.8", p)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 6 {
		t.Fatalf("Table I has %d rows", len(tb.Rows))
	}
	if tb.Rows[0][1] != "7.8" || tb.Rows[0][2] != "9.7" || tb.Rows[0][3] != "25.6" {
		t.Errorf("FP64 row wrong: %v", tb.Rows[0])
	}
	if tb.Rows[1][1] != "-" || tb.Rows[1][2] != "19.5" || tb.Rows[1][3] != "51.2" {
		t.Errorf("FP64 Tensor row wrong: %v", tb.Rows[1])
	}
	// V100 has no TF32/BF16.
	if tb.Rows[3][1] != "-" || tb.Rows[5][1] != "-" {
		t.Errorf("V100 TF32/BF16 should be '-': %v, %v", tb.Rows[3], tb.Rows[5])
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2([]int{2048, 4096, 6144, 8192, 10240})
	want := map[string][]float64{
		"Move one tile/matrix in FP64": {0.67, 2.68, 6.04, 10.74, 16.78},
		"Move one tile/matrix in FP32": {0.34, 1.34, 3.02, 5.37, 8.39},
		"Move one tile/matrix in FP16": {0.17, 0.67, 1.51, 2.68, 4.19},
		"Execute GEMM in FP64":         {2.2, 17.62, 59.47, 140.96, 275.32},
		"Execute GEMM in FP32":         {1.09, 8.75, 29.54, 70.03, 136.78},
		"Execute GEMM in FP16":         {0.14, 1.1, 3.71, 8.8, 17.18},
	}
	for _, r := range rows {
		w, ok := want[r.Label]
		if !ok {
			t.Fatalf("unexpected row %q", r.Label)
		}
		for i, v := range r.TimeMs {
			if math.Abs(v-w[i])/w[i] > 0.12 {
				t.Errorf("%s[%d] = %.3f ms, paper %.2f ms", r.Label, i, v, w[i])
			}
		}
	}
}

func TestConvSweepShape(t *testing.T) {
	rows, err := ConvSweepOpts(hw.SummitNode, 1, 1, []int{16384, 32768}, 2048, "", SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(cfg, strat string, n int) ConvRow {
		for _, r := range rows {
			if r.Config == cfg && r.Strategy == strat && r.N == n {
				return r
			}
		}
		t.Fatalf("row %s/%s/%d missing", cfg, strat, n)
		return ConvRow{}
	}
	// STC ≥ TTC for the MP extremes.
	for _, cfg := range []string{"FP64/FP16_32", "FP64/FP16"} {
		for _, n := range []int{16384, 32768} {
			stc, ttc := get(cfg, "STC", n), get(cfg, "TTC", n)
			if stc.Tflops < ttc.Tflops {
				t.Errorf("%s n=%d: STC %g below TTC %g Tflop/s", cfg, n, stc.Tflops, ttc.Tflops)
			}
		}
	}
	// MP beats FP32 beats FP64 at the larger size.
	f64 := get("FP64", "STC", 32768)
	f32 := get("FP32", "STC", 32768)
	f16 := get("FP64/FP16", "STC", 32768)
	if !(f16.Tflops > f32.Tflops && f32.Tflops > f64.Tflops) {
		t.Errorf("precision ordering violated: FP64=%g FP32=%g FP64/FP16=%g",
			f64.Tflops, f32.Tflops, f16.Tflops)
	}
	// FP64 efficiency in the paper's band (84.2% on V100).
	if f64.PctPeak < 70 || f64.PctPeak > 100 {
		t.Errorf("FP64 efficiency %g%% outside plausible band", f64.PctPeak)
	}
}

func TestPrecisionMapFig7Shape(t *testing.T) {
	// Scaled-down Fig 7: 2D-sqexp must be cheapest (most half-precision
	// tiles), 3D-sqexp most expensive (most FP64/FP32 tiles).
	frac := map[string]map[prec.Precision]float64{}
	for _, app := range Apps() {
		res, err := PrecisionMap(app, 16384, 512, 96, 3)
		if err != nil {
			t.Fatal(err)
		}
		frac[app.Name] = res.Fractions
	}
	halfShare := func(name string) float64 {
		return frac[name][prec.FP16] + frac[name][prec.FP16x32]
	}
	highShare := func(name string) float64 {
		return frac[name][prec.FP64] + frac[name][prec.FP32]
	}
	if !(halfShare("2D-sqexp") > halfShare("3D-sqexp")) {
		t.Errorf("2D-sqexp half share %g not above 3D-sqexp %g",
			halfShare("2D-sqexp"), halfShare("3D-sqexp"))
	}
	if !(highShare("3D-sqexp") > highShare("2D-sqexp")) {
		t.Errorf("3D-sqexp high-precision share %g not above 2D-sqexp %g",
			highShare("3D-sqexp"), highShare("2D-sqexp"))
	}
}

func TestRenderMaps(t *testing.T) {
	res, err := PrecisionMap(Apps()[0], 2048, 256, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	km := RenderKernelMap(res.Maps)
	if !strings.Contains(km, "D") {
		t.Error("kernel map has no FP64 diagonal")
	}
	if lines := strings.Count(km, "\n"); lines != res.NT {
		t.Errorf("kernel map has %d lines, want %d", lines, res.NT)
	}
	cm := RenderCommMap(res.Maps)
	if len(cm) == 0 {
		t.Error("empty comm map")
	}
	sm := RenderStorageMap(res.Maps)
	if strings.Contains(sm, "H") || strings.Contains(sm, "h") {
		t.Error("storage map contains half-precision tiles (§V forbids)")
	}
}

func TestEnergyRun(t *testing.T) {
	run, err := EnergyRunOne(hw.SummitNode, fp64, 16384, 2048, 50, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if run.EnergyJ <= 0 || run.Time <= 0 || run.GflopsPerW <= 0 {
		t.Errorf("empty energy run: %+v", run)
	}
	if len(run.Power) != 50 || len(run.Occupancy) != 50 {
		t.Fatalf("trace bins: %d power, %d occupancy", len(run.Power), len(run.Occupancy))
	}
	for _, p := range run.Power {
		if p.V < hw.V100.IdleW-1e-9 || p.V > hw.V100.TDP+hw.V100.TransferW+1 {
			t.Errorf("power sample %g W outside [idle, TDP+transfer]", p.V)
		}
	}
	for _, o := range run.Occupancy {
		if o.V < 0 || o.V > 1 {
			t.Errorf("occupancy %g outside [0,1]", o.V)
		}
	}
	// Steady-state FP64 should draw near TDP (Fig 10's FP64 panels).
	mid := run.Power[len(run.Power)/2].V
	if mid < 0.8*hw.V100.TDP {
		t.Errorf("mid-run FP64 power %g W, want near TDP %g", mid, hw.V100.TDP)
	}
}

func TestEnergyMPSavesEnergy(t *testing.T) {
	base, err := EnergyRunOne(hw.SummitNode, fp64, 16384, 2048, 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	app := Apps()[0]
	mp, err := EnergyRunOne(hw.SummitNode, Variant{Name: "MP", App: &app}, 16384, 2048, 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if mp.EnergyJ >= base.EnergyJ {
		t.Errorf("MP energy %g J not below FP64 %g J", mp.EnergyJ, base.EnergyJ)
	}
	if mp.GflopsPerW <= base.GflopsPerW {
		t.Errorf("MP %g Gflops/W not above FP64 %g", mp.GflopsPerW, base.GflopsPerW)
	}
}

func TestScalingShapes(t *testing.T) {
	weak, err := WeakScaling([]int{1, 4}, 32768, 2048, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(weak) != 2 {
		t.Fatal("weak scaling row count")
	}
	// Near-linear: 4 nodes ≥ 2.8× the 1-node throughput.
	if weak[1].Tflops < 2.8*weak[0].Tflops {
		t.Errorf("weak scaling poor: %g -> %g Tflop/s", weak[0].Tflops, weak[1].Tflops)
	}
	strong, err := StrongScaling([]int{1, 4}, 65536, 2048, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if strong[1].Time >= strong[0].Time {
		t.Errorf("strong scaling: time did not drop (%g -> %g)", strong[0].Time, strong[1].Time)
	}
}

func TestMPEffect(t *testing.T) {
	rows, err := MPEffect(2, []int{32768}, 2048, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sp := map[string]float64{}
	for _, r := range rows {
		sp[r.Config] = r.Speedup
	}
	if sp["FP64"] != 1 {
		t.Errorf("FP64 self-speedup %g", sp["FP64"])
	}
	if !(sp["2D-sqexp"] > 1) {
		t.Errorf("2D-sqexp speedup %g not above 1", sp["2D-sqexp"])
	}
	// 2D-sqexp (most low-precision tiles) beats 3D-sqexp (fewest).
	if !(sp["2D-sqexp"] > sp["3D-sqexp"]) {
		t.Errorf("2D-sqexp %g not above 3D-sqexp %g", sp["2D-sqexp"], sp["3D-sqexp"])
	}
}

func TestAccuracyStudySmall(t *testing.T) {
	res, err := AccuracyStudyEvals(Fig5Cases()[0], []float64{0, 1e-9}, 3, 100, 32, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 { // 2 levels × 2 params
		t.Fatalf("got %d results, want 4", len(res))
	}
	for _, r := range res {
		if r.Failed > 0 {
			t.Errorf("%s u=%g: %d failures", r.Case, r.UReq, r.Failed)
		}
		if r.Summary.N != 3 {
			t.Errorf("summary over %d estimates", r.Summary.N)
		}
	}
}

func TestAppsAndTables(t *testing.T) {
	if len(Apps()) != 3 {
		t.Fatal("expected 3 applications")
	}
	if _, ok := AppByName("2D-Matern"); !ok {
		t.Error("AppByName failed")
	}
	if _, ok := AppByName("nope"); ok {
		t.Error("AppByName matched nonsense")
	}
	var sb strings.Builder
	tb := NewTable("T", "a", "bb")
	tb.Add("x", 1.5)
	tb.Add("long-cell", 123456.0)
	tb.Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "## T") || !strings.Contains(out, "long-cell") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
	if HumanBytes(3<<30) != "3.00 GiB" || HumanBytes(512) != "512 B" {
		t.Error("HumanBytes wrong")
	}
}

func TestAdaptiveVsBandedAblation(t *testing.T) {
	rows, err := AdaptiveVsBanded(Apps()[0], 32768, 2048, hw.SummitNode, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	adaptive, banded := rows[0], rows[1]
	// Same accuracy guarantee, but banding over-spends precision: it must
	// keep at least as many FP64 tiles and be no faster.
	if banded.FP64Share < adaptive.FP64Share {
		t.Errorf("banded FP64 share %g below adaptive %g", banded.FP64Share, adaptive.FP64Share)
	}
	if banded.Tflops > adaptive.Tflops*1.0001 {
		t.Errorf("banded (%g Tflop/s) outperformed adaptive (%g)", banded.Tflops, adaptive.Tflops)
	}
}

func TestLookaheadAblation(t *testing.T) {
	rows, err := LookaheadAblation(98304, 2048, hw.SummitNode, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Deeper pipelines must not slow the run; depth 2 should beat depth 1
	// on a transfer-bound configuration (double buffering).
	if rows[1].Time > rows[0].Time*1.0001 {
		t.Errorf("lookahead 2 (%g s) slower than 1 (%g s)", rows[1].Time, rows[0].Time)
	}
	if rows[2].Time > rows[1].Time*1.01 {
		t.Errorf("lookahead 4 (%g s) much slower than 2 (%g s)", rows[2].Time, rows[1].Time)
	}
}

// TestWeakScalingNoNodeCounts: the sweep scales N against its first node
// count, so an empty list is an error, not an index panic.
func TestWeakScalingNoNodeCounts(t *testing.T) {
	if _, err := WeakScaling(nil, 32768, 2048, SweepOpts{}); err == nil {
		t.Fatal("empty node-count list accepted")
	}
}

// TestWeakScalingBadTileSize: weak scaling rounds N up to a multiple of ts,
// so ts <= 0 must come back as the descriptor's error — the one the strong
// family returns — not as a divide-by-zero panic.
func TestWeakScalingBadTileSize(t *testing.T) {
	_, strongErr := StrongScaling([]int{1}, 32768, 0, SweepOpts{})
	if strongErr == nil {
		t.Fatal("strong scaling accepted ts=0")
	}
	_, err := WeakScaling([]int{1}, 32768, 0, SweepOpts{})
	if err == nil || err.Error() != strongErr.Error() {
		t.Fatalf("weak scaling ts=0: err = %v, want %v", err, strongErr)
	}
}

// TestEnergyRunRejectsNoBins: zero or negative trace windows leave the
// occupancy mean a 0/0, so the run is refused up front.
func TestEnergyRunRejectsNoBins(t *testing.T) {
	for _, bins := range []int{0, -3} {
		if _, err := EnergyRunOne(hw.SummitNode, fp64, 8192, 2048, bins, 1, false); err == nil {
			t.Errorf("bins=%d accepted", bins)
		}
	}
}
