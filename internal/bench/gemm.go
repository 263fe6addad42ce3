package bench

import (
	"geompc/internal/hw"
	"geompc/internal/linalg"
	"geompc/internal/prec"
	"geompc/internal/stats"
)

// GemmAccRow is one point of Fig 1's accuracy panels: the relative
// Frobenius error of a reduced-precision GEMM against the FP64 result,
// from real emulated arithmetic.
type GemmAccRow struct {
	N    int
	Prec prec.Precision
	Err  float64
}

// GemmAccuracy runs the Fig 1 accuracy study: square GEMMs on random data
// in every supported precision, measured against FP64. This is real
// computation (software-emulated formats), so errors carry the true
// rounding behaviour, independent of any GPU model.
func GemmAccuracy(sizes []int, seed uint64) []GemmAccRow {
	var out []GemmAccRow
	rng := stats.NewRNG(seed, 0)
	for _, n := range sizes {
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		for i := range a {
			a[i] = rng.Float64()*2 - 1
			b[i] = rng.Float64()*2 - 1
		}
		ref := make([]float64, n*n)
		linalg.GemmNTPrec(prec.FP64, n, n, n, 1, a, n, b, n, 0, ref, n)
		for _, p := range []prec.Precision{prec.FP32, prec.TF32, prec.BF16x32, prec.FP16x32, prec.FP16} {
			c := make([]float64, n*n)
			linalg.GemmNTPrec(p, n, n, n, 1, a, n, b, n, 0, c, n)
			out = append(out, GemmAccRow{N: n, Prec: p, Err: linalg.RelFrobeniusError(c, ref)})
		}
	}
	return out
}

// GemmPerfRow is one point of Fig 1's performance panels: modeled sustained
// GEMM throughput (datatype conversion included, host transfers excluded,
// matching the figure's methodology).
type GemmPerfRow struct {
	GPU     string
	N       int
	Prec    prec.Precision
	Tflops  float64
	PeakPct float64
}

// GemmPerformance evaluates the device model's GEMM throughput per
// precision — including the input datatype-conversion overhead the paper
// accounts for in FP16_32/BF16_32/FP16 (inputs arrive in FP32).
func GemmPerformance(gpus []*hw.GPUSpec, sizes []int) []GemmPerfRow {
	var out []GemmPerfRow
	for _, g := range gpus {
		for _, n := range sizes {
			flops := 2 * float64(n) * float64(n) * float64(n)
			for _, p := range prec.All {
				if !g.Supports(p) {
					continue
				}
				t := g.KernelTime(hw.KindGemm, p, flops)
				if p.InputBytes() < 4 {
					// A and B converted from FP32 storage on device.
					t += 2 * g.ConvertTime(n*n, prec.FP32, p)
				}
				tf := flops / t / 1e12
				out = append(out, GemmPerfRow{
					GPU: g.Name, N: n, Prec: p,
					Tflops:  tf,
					PeakPct: 100 * tf * 1e12 / g.SupportedPeak(p),
				})
			}
		}
	}
	return out
}

// Table1 returns the peak-performance table (Table I) from the device
// specs, in Tflop/s.
func Table1() *Table {
	t := NewTable("Table I: peak performance of Nvidia GPUs (Tflop/s)",
		"Precision", "V100 (NVLink)", "A100 (SXM)", "H100 (PCIe)")
	cell := func(g *hw.GPUSpec, p prec.Precision) string {
		if !g.Supports(p) {
			return "-"
		}
		return formatFloat(g.Peak[p] / 1e12)
	}
	tensor64 := func(g *hw.GPUSpec) string {
		if g.Peak[prec.FP64] == g.FP64NonTensor {
			return "-"
		}
		return formatFloat(g.Peak[prec.FP64] / 1e12)
	}
	gpus := []*hw.GPUSpec{hw.V100, hw.A100, hw.H100}
	add := func(label string, f func(g *hw.GPUSpec) string) {
		t.Add(label, f(gpus[0]), f(gpus[1]), f(gpus[2]))
	}
	add("FP64", func(g *hw.GPUSpec) string { return formatFloat(g.FP64NonTensor / 1e12) })
	add("FP64 Tensor", tensor64)
	add("FP32", func(g *hw.GPUSpec) string { return cell(g, prec.FP32) })
	add("TF32 Tensor", func(g *hw.GPUSpec) string { return cell(g, prec.TF32) })
	add("FP16 Tensor", func(g *hw.GPUSpec) string { return cell(g, prec.FP16) })
	add("BF16 Tensor", func(g *hw.GPUSpec) string { return cell(g, prec.BF16x32) })
	return t
}

// Table2Row is one row of Table II: milliseconds to move one tile/matrix to
// a V100 or to execute a GEMM on it, per precision.
type Table2Row struct {
	Label  string
	TimeMs []float64
}

// Table2 regenerates Table II from the V100 model for the paper's sizes.
func Table2(sizes []int) []Table2Row {
	move := func(p prec.Precision) Table2Row {
		r := Table2Row{Label: "Move one tile/matrix in " + p.String()}
		for _, n := range sizes {
			bytes := int64(n) * int64(n) * int64(p.InputBytes())
			r.TimeMs = append(r.TimeMs, hw.V100.H2DLink().Time(bytes)*1e3)
		}
		return r
	}
	exec := func(p prec.Precision) Table2Row {
		r := Table2Row{Label: "Execute GEMM in " + p.String()}
		for _, n := range sizes {
			flops := 2 * float64(n) * float64(n) * float64(n)
			r.TimeMs = append(r.TimeMs, hw.V100.KernelTime(hw.KindGemm, p, flops)*1e3)
		}
		return r
	}
	return []Table2Row{
		move(prec.FP64), move(prec.FP32), move(prec.FP16),
		exec(prec.FP64), exec(prec.FP32), exec(prec.FP16),
	}
}
