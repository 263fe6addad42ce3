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

// MaxAbsDiff returns max_i |a_i - b_i|; panics if lengths differ.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: length mismatch")
	}
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
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
