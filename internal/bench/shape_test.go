package bench

import (
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// These tests encode DESIGN.md §4's shape targets as regressions: the
// qualitative orderings the paper's figures establish must hold for every
// future change to the device or conversion models.

// phantomRun factorizes a phantom (cost-only) matrix on one node of the
// given type with the given uniform off-diagonal precision and strategy.
func phantomRun(t *testing.T, node *hw.NodeSpec, ranks, n, ts int, offdiag prec.Precision, strat cholesky.Strategy) *cholesky.Result {
	t.Helper()
	plat, err := runtime.NewPlatform(node, ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := tile.NewDesc(n, ts, 1, ranks)
	if err != nil {
		t.Fatal(err)
	}
	maps := precmap.New(precmap.Uniform(desc.NT, offdiag), 1e-4)
	res, err := cholesky.Run(cholesky.Config{
		Desc: desc, Maps: maps, Platform: plat, Strategy: strat, Options: runtime.Options{Audit: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSTCNotSlowerThanTTCAllGenerations is Fig 8's shape target: the
// automated strategy (which picks STC whenever Algorithm 2 deems it
// profitable) must never lose to forced receiver-side conversion, on any of
// the three GPU generations.
func TestSTCNotSlowerThanTTCAllGenerations(t *testing.T) {
	nodes := []*hw.NodeSpec{hw.SummitNode, hw.GuyotNode, hw.HaxaneNode}
	for _, nd := range nodes {
		for _, off := range []prec.Precision{prec.FP16x32, prec.FP16} {
			stc := phantomRun(t, nd, 2, 16384, 2048, off, cholesky.Auto)
			ttc := phantomRun(t, nd, 2, 16384, 2048, off, cholesky.ForceTTC)
			if stc.Stats.Makespan > ttc.Stats.Makespan*(1+1e-12) {
				t.Errorf("%s FP64/%v: STC makespan %g s above TTC %g s",
					nd.GPU.Name, off, stc.Stats.Makespan, ttc.Stats.Makespan)
			}
		}
	}
}

// TestWireByteRatioTable2 is Table II's 4:2:1 target: the same factorization
// communicated in FP64, FP32 and FP16 wire formats must move network bytes
// in exactly that ratio (wire volume scales with the element size alone).
func TestWireByteRatioTable2(t *testing.T) {
	net := map[prec.Precision]int64{}
	for _, p := range []prec.Precision{prec.FP64, prec.FP32, prec.FP16} {
		plat, err := runtime.NewPlatform(hw.SummitNode, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		desc, err := tile.NewDesc(16384, 2048, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Auto strategy: the comm map sends at the kernel's input format, so
		// FP16 tiles really travel as binary16 (ForceTTC would ship them at
		// their FP32 storage precision instead).
		maps := precmap.New(precmap.UniformAll(desc.NT, p), 1e-2)
		res, err := cholesky.Run(cholesky.Config{
			Desc: desc, Maps: maps, Platform: plat, Strategy: cholesky.Auto, Options: runtime.Options{Audit: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BytesNet <= 0 {
			t.Fatalf("%v: no network traffic in a 2-rank run", p)
		}
		net[p] = res.Stats.BytesNet
	}
	if net[prec.FP64] != 2*net[prec.FP32] || net[prec.FP32] != 2*net[prec.FP16] {
		t.Errorf("network bytes not 4:2:1 — FP64=%d FP32=%d FP16=%d",
			net[prec.FP64], net[prec.FP32], net[prec.FP16])
	}
	// The move-time rows of Table II must show the same ratio (the transfer
	// model is linear in bytes at these sizes).
	rows := Table2([]int{8192})
	mv := map[string]float64{}
	for _, r := range rows {
		mv[r.Label] = r.TimeMs[0]
	}
	r64, r32, r16 := mv["Move one tile/matrix in FP64"], mv["Move one tile/matrix in FP32"], mv["Move one tile/matrix in FP16"]
	if r64 <= 0 || r32 <= 0 || r16 <= 0 {
		t.Fatalf("missing Table II move rows: %v", mv)
	}
	for _, ratio := range []float64{r64 / r32, r32 / r16} {
		if ratio < 1.9 || ratio > 2.1 {
			t.Errorf("Table II move-time ratio %g outside [1.9, 2.1]", ratio)
		}
	}
}

// TestFig1ErrorOrdering is Fig 1's accuracy target: GEMM backward error
// must order FP64 < FP32 < TF32 ≈ FP16_32 < FP16 (FP64 is the reference,
// so its error is identically zero; TF32 and FP16_32 agree to within a
// small constant because both accumulate in FP32).
func TestFig1ErrorOrdering(t *testing.T) {
	rows := GemmAccuracy([]int{48}, 7)
	err := map[prec.Precision]float64{}
	for _, r := range rows {
		err[r.Prec] = r.Err
	}
	if !(err[prec.FP32] > 0) {
		t.Error("FP32 error not above the FP64 reference")
	}
	if !(err[prec.FP32] < err[prec.TF32]) {
		t.Errorf("FP32 error %g not below TF32 %g", err[prec.FP32], err[prec.TF32])
	}
	if !(err[prec.FP32] < err[prec.FP16x32]) {
		t.Errorf("FP32 error %g not below FP16_32 %g", err[prec.FP32], err[prec.FP16x32])
	}
	if ratio := err[prec.TF32] / err[prec.FP16x32]; ratio < 0.25 || ratio > 4 {
		t.Errorf("TF32/FP16_32 error ratio %g outside [1/4, 4]", ratio)
	}
	if !(err[prec.FP16x32] < err[prec.FP16]) {
		t.Errorf("FP16_32 error %g not below FP16 %g", err[prec.FP16x32], err[prec.FP16])
	}
}
