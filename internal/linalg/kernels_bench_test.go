package linalg

import (
	"fmt"
	"testing"

	"geompc/internal/prec"
)

// benchMatrix fills an n×k slice with a deterministic well-conditioned
// pattern (no RNG dependency, so seed and optimized trees benchmark
// identical data).
func benchMatrix(rows, cols int) []float64 {
	m := make([]float64, rows*cols)
	for i := range m {
		m[i] = 0.5 + float64((i*2654435761)%1024)/2048
	}
	return m
}

// BenchmarkGemmNT256 times the 256×256×256 NT GEMM per emulated precision —
// the tile-kernel shape the Fig 5/6 Monte-Carlo accuracy studies spend
// nearly all of their time in.
func BenchmarkGemmNT256(b *testing.B) {
	const n = 256
	a := benchMatrix(n, n)
	bb := benchMatrix(n, n)
	c := benchMatrix(n, n)
	for _, p := range []prec.Precision{prec.FP64, prec.FP32, prec.TF32, prec.BF16x32, prec.FP16x32, prec.FP16} {
		b.Run(p.String(), func(b *testing.B) {
			b.SetBytes(3 * n * n * 8)
			for i := 0; i < b.N; i++ {
				GemmNTPrec(p, n, n, n, -1, a, n, bb, n, 1, c, n)
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

// BenchmarkSyrkTrsm256 times the 256-sized SYRK and TRSM tile kernels that
// accompany every GEMM in the factorization.
func BenchmarkSyrkTrsm256(b *testing.B) {
	const n = 256
	a := benchMatrix(n, n)
	c := benchMatrix(n, n)
	b.Run("syrk/FP64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			syrkLN(n, n, -1, a, n, 1, c, n)
		}
	})
	tri := benchTriangle(benchMatrix(n, n), n)
	for _, p := range []prec.Precision{prec.FP64, prec.FP32} {
		b.Run(fmt.Sprintf("trsm/%s", p), func(b *testing.B) {
			x := make([]float64, n*n)
			for i := 0; i < b.N; i++ {
				// The solve overwrites its right-hand side; re-solving the
				// result would shrink it by the diagonal each iteration until
				// it decays into subnormals, and ns/op would depend on b.N.
				copy(x, c)
				TrsmRLTPrec(p, n, n, tri, n, x, n)
			}
		})
	}
}

// benchTriangle returns a copy of the n×n matrix m with n added to the
// diagonal: a strongly diagonally dominant triangular operand.
func benchTriangle(m []float64, n int) []float64 {
	tri := append([]float64(nil), m...)
	for i := 0; i < n; i++ {
		tri[i*n+i] += float64(n)
	}
	return tri
}

func scaled(m []float64, f float64) []float64 {
	out := make([]float64, len(m))
	for i, v := range m {
		out[i] = v * f
	}
	return out
}

// The 64-tile legs time the kernels at fit_matern's tile size. The
// -underflow legs run on 1e-21-scaled operands: every product underflows
// binary32, the regime of the first third of a Matérn fit (β ≈ 0.01), where
// each SSE operation on a subnormal costs a microcode assist unless the
// kernel flushes to zero.
func BenchmarkGemmNT64(b *testing.B) {
	const n = 64
	c := make([]float64, n*n)
	for _, leg := range []struct {
		name  string
		p     prec.Precision
		scale float64
	}{
		{"FP64", prec.FP64, 1}, {"FP32", prec.FP32, 1}, {"TF32", prec.TF32, 1}, {"BF16_32", prec.BF16x32, 1},
		{"FP16_32", prec.FP16x32, 1}, {"FP16", prec.FP16, 1}, {"FP32-underflow", prec.FP32, 1e-21},
	} {
		a := scaled(benchMatrix(n, n), leg.scale)
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmNTPrec(leg.p, n, n, n, -1, a, n, a, n, 0, c, n)
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

// BenchmarkTrsm64 also has an FP64 leg at the Monte-Carlo study's tile
// size, 49.
func BenchmarkTrsm64(b *testing.B) {
	for _, leg := range []struct {
		name  string
		n     int
		p     prec.Precision
		scale float64
	}{
		{"FP64", 64, prec.FP64, 1}, {"FP64-n49", 49, prec.FP64, 1},
		{"FP32", 64, prec.FP32, 1}, {"FP32-underflow", 64, prec.FP32, 1e-21},
	} {
		n := leg.n
		x := make([]float64, n*n)
		rhs := scaled(benchMatrix(n, n), leg.scale)
		tri := benchTriangle(rhs, n)
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, rhs)
				TrsmRLTPrec(leg.p, n, n, tri, n, x, n)
			}
		})
	}
}

// BenchmarkPotrf times the FP64 Cholesky at the Monte-Carlo study's tile
// size (49), at fit_matern's (64), and at the dense factor n = 1600 that
// geo.SimulateField runs when a 1600-point dataset is drawn.
func BenchmarkPotrf(b *testing.B) {
	for _, n := range []int{49, 64, 1600} {
		spd := benchTriangle(benchSPD(n), n)
		a := make([]float64, n*n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, spd)
				if err := PotrfLower(n, a, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(n)*float64(n)/3*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

// benchSPD returns the n×n Gram matrix of an n×n benchMatrix divided by n:
// symmetric positive semi-definite with entries of order 1, so benchTriangle
// of it is well-conditioned.
func benchSPD(n int) []float64 {
	m := benchMatrix(n, n)
	g := make([]float64, n*n)
	GemmNTPrec(prec.FP64, n, n, n, 1/float64(n), m, n, m, n, 0, g, n)
	return g
}
