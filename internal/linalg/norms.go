package linalg

import "math"

// FrobeniusNormMat returns the Frobenius norm of the m×n matrix stored
// row-major with stride ld.
func FrobeniusNormMat(m, n int, a []float64, ld int) float64 {
	var sum float64
	for i := 0; i < m; i++ {
		row := a[i*ld : i*ld+n]
		for _, v := range row {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// FrobeniusNorms4 returns the Frobenius norms of four matrices of one size,
// each stored contiguously, in one loop of four independent chains: each is
// FrobeniusNormMat's sum, in its element order.
func FrobeniusNorms4(a, b, c, d []float64) [4]float64 {
	b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
	var s0, s1, s2, s3 float64
	for i, v := range a {
		s0 += v * v
		s1 += b[i] * b[i]
		s2 += c[i] * c[i]
		s3 += d[i] * d[i]
	}
	return [4]float64{math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)}
}

// RelFrobeniusError returns ‖a-b‖_F / ‖b‖_F, the accuracy metric of the
// GEMM benchmark (Fig 1): the error of a reduced-precision result a against
// the FP64 reference b.
func RelFrobeniusError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: length mismatch")
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}
