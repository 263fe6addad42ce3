package linalg

import "math"

// width is the number of float64 lanes per vector the FP64 micro-kernel
// runs at; widthGo is the portable pure-Go instantiation (the only one off
// amd64, and the reference the assembled widths are tested against).
type width int

const (
	widthGo     width = 0
	widthSSE2   width = 2
	widthAVX2   width = 4
	widthAVX512 width = 8
)

// nb is the number of B columns in one packed block: two vectors (the
// pure-Go kernel keeps the SSE2 shape).
func (w width) nb() int {
	if w == widthGo {
		return 4
	}
	return 2 * int(w)
}

// maxNB bounds nb() over all widths; 4·maxNB sizes the stack block partial
// results are staged in.
const maxNB = 16

// accGo is the micro-kernel's k-loop in portable Go at nb = 4: lane jj of
// each logical vector is one output element's accumulator, and each takes
// s += (sign·a[l])·b[l] in strictly increasing l — the arithmetic the
// assembled widths perform per lane (sign·a is exact, and s + (−a)·b is
// IEEE-754's definition of s − a·b).
func accGo(k int, a []float64, lda int, bp []float64, sign float64, s *[16]float64) {
	a0, a1, a2, a3 := a[:k], a[lda:][:k], a[2*lda:][:k], a[3*lda:][:k]
	bp = bp[:4*k]
	for l := 0; l < k; l++ {
		b0, b1, b2, b3 := bp[4*l], bp[4*l+1], bp[4*l+2], bp[4*l+3]
		a := sign * a0[l]
		s[0] += a * b0
		s[1] += a * b1
		s[2] += a * b2
		s[3] += a * b3
		a = sign * a1[l]
		s[4] += a * b0
		s[5] += a * b1
		s[6] += a * b2
		s[7] += a * b3
		a = sign * a2[l]
		s[8] += a * b0
		s[9] += a * b1
		s[10] += a * b2
		s[11] += a * b3
		a = sign * a3[l]
		s[12] += a * b0
		s[13] += a * b1
		s[14] += a * b2
		s[15] += a * b3
	}
}

// dotKernGo is the dot entry point in portable Go: sums from zero, then
// C = alpha·s + beta·C.
func dotKernGo(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int) {
	var s [16]float64
	accGo(k, a, lda, bp, 1, &s)
	for r := 0; r < 4; r++ {
		cr := c[r*ldc:][:4]
		for jj := range cr {
			if beta == 0 { // BLAS: C is not read when beta == 0
				cr[jj] = alpha * s[4*r+jj]
			} else {
				cr[jj] = alpha*s[4*r+jj] + beta*cr[jj]
			}
		}
	}
}

// subKernGo is the fused-subtract entry point in portable Go: the block of
// C is the accumulators' starting value and each product is subtracted.
func subKernGo(k int, a []float64, lda int, bp []float64, c []float64, ldc int) {
	var s [16]float64
	for r := 0; r < 4; r++ {
		copy(s[4*r:4*r+4], c[r*ldc:])
	}
	accGo(k, a, lda, bp, -1, &s)
	for r := 0; r < 4; r++ {
		copy(c[r*ldc:][:4], s[4*r:])
	}
}

// How the lane kernel finishes a column (lanesGo).
const (
	laneDiv   = iota // s / a(j, j): the triangular solve
	laneScale        // s·(1/a(j, j)): a Cholesky column below its pivot
	lanePivot        // the Cholesky's pivot group, a(j, j) = lane j−j0 of x[j]
)

// lanesGo is the lane kernel in portable Go, the assembled widths'
// reference. x holds nl rows, one per lane (x[l·nl+r] is element l of row
// r); for j in [j0, j1) every lane of column j runs s −= x[l]·a(j, l) over
// l = l0..j−1, with a(j, l) = a[(j−j0)·rs + (l−l0)·cs], and mode finishes
// it. A lanePivot d must be positive and becomes √d. It returns the columns
// finished; fewer than j1−j0 when a pivot is not (left in x[j] unscaled).
func lanesGo[T float32 | float64](nl int, x, a []T, l0, j0, j1, rs, cs, mode int) int {
	for j := j0; j < j1; j++ {
		aj, xj := a[(j-j0)*rs:], x[j*nl:][:nl]
		for l := l0; l < j; l++ {
			for r, v := range x[l*nl:][:nl] {
				xj[r] -= v * aj[(l-l0)*cs]
			}
		}
		d := aj[(j-l0)*cs]
		if mode == lanePivot {
			if !(d > 0) {
				return j - j0
			}
			d = T(math.Sqrt(float64(d)))
		}
		inv := 1 / d
		for r := range xj {
			if mode == laneDiv {
				xj[r] /= d
			} else {
				xj[r] *= inv
			}
		}
		if mode == lanePivot {
			xj[j-j0] = d
		}
	}
	return j1 - j0
}

// transposeGo is transpose in portable Go.
func transposeGo[T float32 | float64](rows, cols int, src []T, lds int, dst []T, ldd int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*lds:][:cols] {
			dst[c*ldd+r] = v
		}
	}
}
