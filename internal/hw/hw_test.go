package hw

import (
	"math"
	"testing"

	"geompc/internal/prec"
)

func TestTableIPeaks(t *testing.T) {
	// Table I, with the §VII-A adjustment that FP64 on A100/H100 runs on
	// tensor cores at the FP32 rate.
	cases := []struct {
		gpu  *GPUSpec
		p    prec.Precision
		want float64 // Tflop/s
	}{
		{V100, prec.FP64, 7.8},
		{V100, prec.FP32, 15.7},
		{V100, prec.FP16, 125},
		{A100, prec.FP64, 19.5},
		{A100, prec.FP32, 19.5},
		{A100, prec.TF32, 156},
		{A100, prec.FP16, 312},
		{A100, prec.BF16x32, 312},
		{H100, prec.FP64, 51.2},
		{H100, prec.FP32, 51.2},
		{H100, prec.TF32, 378},
		{H100, prec.FP16, 756},
	}
	for _, c := range cases {
		if got := c.gpu.SupportedPeak(c.p) / 1e12; math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s %v peak = %g, want %g Tflop/s", c.gpu.Name, c.p, got, c.want)
		}
	}
}

func TestV100FallbackForTF32(t *testing.T) {
	if V100.Supports(prec.TF32) {
		t.Error("V100 must not support TF32")
	}
	// TF32 and BF16_32 on V100 run at the first supported format on the
	// ladder with a smaller unit roundoff: FP16_32, 125 Tflop/s.
	for _, p := range []prec.Precision{prec.TF32, prec.BF16x32} {
		if got := V100.SupportedPeak(p); got != 125e12 || got != V100.Peak[prec.FP16x32] {
			t.Errorf("V100 %v fallback peak = %g, want FP16_32's 125e12", p, got)
		}
	}
}

func TestTableIITransferTimes(t *testing.T) {
	// Table II: moving a 2048² tile to one V100 — 0.67 ms in FP64,
	// 0.34 ms in FP32, 0.17 ms in FP16.
	elems := int64(2048 * 2048)
	cases := []struct {
		p      prec.Precision
		wantMs float64
	}{
		{prec.FP64, 0.67}, {prec.FP32, 0.34}, {prec.FP16, 0.17},
	}
	for _, c := range cases {
		got := V100.H2DLink().Time(elems*int64(c.p.InputBytes())) * 1e3
		if math.Abs(got-c.wantMs) > 0.05*c.wantMs {
			t.Errorf("H2D %v: %.3f ms, want %.2f ms (Table II)", c.p, got, c.wantMs)
		}
	}
}

func TestTableIIGemmTimes(t *testing.T) {
	// Table II: GEMM on 2048..10240 matrices runs at (near) peak on V100.
	sizes := []float64{2048, 4096, 6144, 8192, 10240}
	wantFP64 := []float64{2.2, 17.62, 59.47, 140.96, 275.32}
	wantFP16 := []float64{0.14, 1.1, 3.71, 8.8, 17.18}
	for i, n := range sizes {
		flops := 2 * n * n * n
		got := V100.KernelTime(KindGemm, prec.FP64, flops) * 1e3
		if math.Abs(got-wantFP64[i])/wantFP64[i] > 0.10 {
			t.Errorf("FP64 GEMM %g: %.2f ms, want %.2f (Table II)", n, got, wantFP64[i])
		}
		got16 := V100.KernelTime(KindGemm, prec.FP16, flops) * 1e3
		if math.Abs(got16-wantFP16[i])/wantFP16[i] > 0.15 {
			t.Errorf("FP16 GEMM %g: %.3f ms, want %.2f (Table II)", n, got16, wantFP16[i])
		}
	}
}

func TestKernelTimeOrdering(t *testing.T) {
	flops := 2.0 * 1024 * 1024 * 1024
	for _, g := range []*GPUSpec{V100, A100, H100} {
		t64 := g.KernelTime(KindGemm, prec.FP64, flops)
		t32 := g.KernelTime(KindGemm, prec.FP32, flops)
		t16 := g.KernelTime(KindGemm, prec.FP16, flops)
		if !(t16 < t32 && t32 <= t64) {
			t.Errorf("%s: kernel times not ordered: %g %g %g", g.Name, t64, t32, t16)
		}
		// POTRF is less efficient than GEMM at the same flop count.
		if g.KernelTime(KindPotrf, prec.FP64, flops) <= t64 {
			t.Errorf("%s: POTRF not slower than GEMM", g.Name)
		}
	}
}

func TestConvertTimeMemoryBound(t *testing.T) {
	n := 2048 * 2048
	ct := V100.ConvertTime(n, prec.FP64, prec.FP16)
	// 4M elements × 10 bytes / 900 GB/s ≈ 47 µs plus launch.
	want := float64(n)*10/900e9 + V100.LaunchOverhead
	if math.Abs(ct-want) > 1e-9 {
		t.Errorf("ConvertTime = %g, want %g", ct, want)
	}
	// Conversion must be far cheaper than the FP64 transfer it saves.
	if ct > V100.H2DLink().Time(int64(n)*8)/5 {
		t.Error("conversion not clearly cheaper than the transfer it optimizes")
	}
}

func TestPowerModel(t *testing.T) {
	for _, g := range []*GPUSpec{V100, A100, H100} {
		p64 := g.IdleW + g.DynPower(prec.FP64)
		if p64 > g.TDP+1e-9 {
			t.Errorf("%s: FP64 power %g exceeds TDP %g", g.Name, p64, g.TDP)
		}
		if g.DynPower(prec.FP16) >= g.DynPower(prec.FP64) {
			t.Errorf("%s: FP16 dynamic power not below FP64", g.Name)
		}
	}
	// H100 §VII-E: does not reach TDP even flat out.
	if H100.IdleW+H100.DynPower(prec.FP64) > 0.95*H100.TDP {
		t.Error("H100 reaches TDP, contradicting §VII-E")
	}
	// Energy per flop must drop steeply with precision (the Fig 10 driver).
	for _, g := range []*GPUSpec{V100, A100, H100} {
		jpf64 := (g.IdleW + g.DynPower(prec.FP64)) / (g.SupportedPeak(prec.FP64) * g.GemmEff)
		jpf16 := (g.IdleW + g.DynPower(prec.FP16)) / (g.SupportedPeak(prec.FP16) * g.GemmEff)
		if jpf16 > jpf64/3 {
			t.Errorf("%s: FP16 J/flop %g not ≪ FP64 %g", g.Name, jpf16, jpf64)
		}
	}
}

func TestNodeSpecs(t *testing.T) {
	if SummitNode.GPUs != 6 || SummitNode.GPU != V100 {
		t.Error("Summit node wrong")
	}
	if GuyotNode.GPUs != 8 || GuyotNode.GPU != A100 {
		t.Error("Guyot node wrong")
	}
	if HaxaneNode.GPUs != 1 || HaxaneNode.GPU != H100 {
		t.Error("Haxane node wrong")
	}
	// Haxane host memory (63 GB) must be below a 122,880² FP32 matrix ×2 —
	// the constraint §VII-D cites for the H100 speedup cap.
	if HaxaneNode.HostMem >= 122880*122880*8 {
		t.Error("Haxane host memory does not bound the FP64 matrix")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"Summit", "Guyot", "Haxane"} {
		if nd, err := NodeByName(n); err != nil || nd.Name != n {
			t.Errorf("NodeByName(%s) failed", n)
		}
	}
	if _, err := NodeByName("Frontier"); err == nil {
		t.Error("NodeByName accepted unknown node")
	}
}
