package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by the POTRF kernels when a pivot is
// not strictly positive, i.e. the input is not (numerically) symmetric
// positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// PotrfLower factorizes the n×n symmetric positive-definite matrix A
// (lower triangle stored, stride lda) in place as A = L·Lᵀ in float64,
// leaving L in the lower triangle. The strict upper triangle is not
// referenced.
func PotrfLower(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		d := a[j*lda+j]
		for l := 0; l < j; l++ {
			d -= a[j*lda+l] * a[j*lda+l]
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		a[j*lda+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a[i*lda+j]
			ai := a[i*lda : i*lda+j]
			aj := a[j*lda : j*lda+j]
			for l := range aj {
				s -= ai[l] * aj[l]
			}
			a[i*lda+j] = s * inv
		}
	}
	return nil
}

// PotrfLower32 is PotrfLower computed in genuine float32 arithmetic over
// float64 storage (for the full-FP32 baseline configuration).
func PotrfLower32(n int, a []float64, lda int) error {
	defer leaveFlush32(enterFlush32())
	w, wp := f32Scratch(n * n)
	defer putF32(wp)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			w[i*n+j] = float32(a[i*lda+j])
		}
	}
	for j := 0; j < n; j++ {
		d := w[j*n+j]
		for l := 0; l < j; l++ {
			d -= w[j*n+l] * w[j*n+l]
		}
		if d <= 0 || math.IsNaN(float64(d)) {
			return fmt.Errorf("%w: pivot %d is %g (fp32)", ErrNotPositiveDefinite, j, d)
		}
		d = float32(math.Sqrt(float64(d)))
		w[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := w[i*n+j]
			for l := 0; l < j; l++ {
				s -= w[i*n+l] * w[j*n+l]
			}
			w[i*n+j] = s * inv
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			a[i*lda+j] = float64(w[i*n+j])
		}
	}
	return nil
}
