package linalg

import (
	"math"
	"unsafe"
)

// width is the number of float64 lanes per vector the micro-kernels run
// at; widthGo is the portable pure-Go instantiation (the only one off
// amd64, and the reference the assembled widths are tested against).
type width int

const (
	widthGo     width = 0
	widthSSE2   width = 2
	widthAVX2   width = 4
	widthAVX512 width = 8
)

// nb is the number of float64 B columns in one packed block: two vectors
// (the pure-Go kernel keeps the SSE2 shape).
func (w width) nb() int {
	if w == widthGo {
		return 4
	}
	return 2 * int(w)
}

// nbOf is the number of B columns in one packed block of T, and of lanes in
// a lane group, at the active width: twice as many float32 as float64.
func nbOf[T float32 | float64]() int {
	if is64[T]() {
		return vecWidth.nb()
	}
	return 2 * vecWidth.nb()
}

// is64 reports whether T is float64, and as views a []T as the []E it is:
// the generic kernels dispatch on is64, a constant per instantiation, and
// call as only where E is T.
func is64[T float32 | float64]() bool { return unsafe.Sizeof(T(0)) == 8 }

func as[E, T float32 | float64](s []T) []E { return *(*[]E)(unsafe.Pointer(&s)) }

// maxNB bounds nbOf over all widths; 4·maxNB sizes the portable kernels'
// accumulator blocks.
const maxNB = 32

// accGo is the micro-kernel's k-loop in portable Go: s holds four rows of
// nb = len(s)/4 accumulators, lane jj of row r one output element's, and
// each takes s += (sign·a[l])·b[l] in strictly increasing l — the
// arithmetic the assembled widths perform per lane (sign·a is exact, and
// s + (−a)·b is IEEE-754's definition of s − a·b).
func accGo[T float32 | float64](k int, a []T, lda int, bp []T, sign T, s []T) {
	nb := len(s) / 4
	a0, a1, a2, a3 := a[:k], a[lda:][:k], a[2*lda:][:k], a[3*lda:][:k]
	s0, s1, s2, s3 := s[:nb], s[nb:][:nb], s[2*nb:][:nb], s[3*nb:][:nb]
	for l := range a0 {
		x0, x1, x2, x3 := sign*a0[l], sign*a1[l], sign*a2[l], sign*a3[l]
		for jj, b := range bp[l*nb:][:nb] {
			s0[jj] += x0 * b
			s1[jj] += x1 * b
			s2[jj] += x2 * b
			s3[jj] += x3 * b
		}
	}
}

// dotKernGo is the dot entry point in portable Go: sums from zero, then
// C = alpha·s + beta·C.
func dotKernGo[T float32 | float64](k int, a []T, lda int, bp []T, alpha, beta T, c []T, ldc int) {
	var s [4 * maxNB]T
	nb := nbOf[T]()
	accGo(k, a, lda, bp, 1, s[:4*nb])
	for r := 0; r < 4; r++ {
		cr := c[r*ldc:][:nb]
		for jj, v := range s[r*nb:][:nb] {
			if beta == 0 { // BLAS: C is not read when beta == 0
				cr[jj] = alpha * v
			} else {
				cr[jj] = alpha*v + beta*cr[jj]
			}
		}
	}
}

// subKernGo is the fused-subtract entry point in portable Go: the block of
// C is the accumulators' starting value and each product is subtracted.
func subKernGo[T float32 | float64](k int, a []T, lda int, bp []T, c []T, ldc int) {
	var s [4 * maxNB]T
	nb := nbOf[T]()
	for r := 0; r < 4; r++ {
		copy(s[r*nb:][:nb], c[r*ldc:])
	}
	accGo(k, a, lda, bp, -1, s[:4*nb])
	for r := 0; r < 4; r++ {
		copy(c[r*ldc:][:nb], s[r*nb:])
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
