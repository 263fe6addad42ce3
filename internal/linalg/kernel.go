package linalg

import (
	"math"
	"unsafe"

	"geompc/internal/fp16"
	"geompc/internal/hostcpu"
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

// vecWidth is the widest vector the processor implements and the OS saves
// the registers of (hostcpu.Lanes: widthGo off amd64); useF16C says whether
// the pure-FP16 GEMM and the binary16 row kernels round with F16C or in Go.
// Neither is a setting: results do not depend on them, only speed does.
var vecWidth, useF16C = width(hostcpu.Lanes), hostcpu.F16C

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

// dot64 computes the 4×nb block C = alpha·A·Bᵀ + beta·C (C not read when
// beta == 0) at the active width: a holds four rows of stride lda, bp one
// packed block of nb = nbOf[float64]() B columns (bp[l·nb+jj] = b(jj)[l]).
func dot64(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int) {
	nb := vecWidth.nb()
	_, _, _ = a[:3*lda+k], bp[:nb*k], c[3*ldc+nb-1]
	if vecWidth == widthGo {
		dotKernGo(k, a, lda, bp, alpha, beta, c, ldc)
		return
	}
	dotKern(vecWidth, k, a, lda, bp, alpha, beta, c, ldc)
}

// dot32 is dot64 on binary32 lanes, nb = nbOf[float32]() columns per
// block, storing the bare sums: the float32 GEMMs combine them with C
// (combine).
func dot32(k int, a []float32, lda int, bp []float32, c []float32, ldc int) {
	nb := nbOf[float32]()
	_, _, _ = a[:3*lda+k], bp[:nb*k], c[3*ldc+nb-1]
	if vecWidth == widthGo {
		dotKernGo(k, a, lda, bp, 1, 0, c, ldc)
		return
	}
	dotKern32(vecWidth, k, a, lda, bp, c, ldc)
}

// sub is the fused-subtract entry point of the same shape, on float64 or
// binary32 lanes: the 4×nb block of C (nb = nbOf[T]()) is the starting
// value of the accumulators and every product is subtracted from it,
// c −= a[l]·b[l] in increasing l.
func sub[T float32 | float64](k int, a []T, lda int, bp, c []T, ldc int) {
	nb := nbOf[T]()
	_, _, _ = a[:3*lda+k], bp[:nb*k], c[3*ldc+nb-1]
	switch {
	case vecWidth == widthGo:
		subKernGo(k, a, lda, bp, c, ldc)
	case is64[T]():
		subKern(vecWidth, k, as[float64](a), lda, as[float64](bp), as[float64](c), ldc)
	default:
		subKern32(vecWidth, k, as[float32](a), lda, as[float32](bp), as[float32](c), ldc)
	}
}

// lanes runs the lane kernel (lanesGo) at the active width on a group of
// nbOf[T]() rows, float64 or binary32.
func lanes[T float32 | float64](x, a []T, l0, j0, j1, rs, cs, mode int) int {
	if j1 > j0 {
		_, _ = x[j1*nbOf[T]()-1], a[(j1-1-j0)*rs+(j1-1-l0)*cs]
	}
	switch {
	case vecWidth == widthGo:
		return lanesGo(nbOf[T](), x, a, l0, j0, j1, rs, cs, mode)
	case is64[T]():
		return lanesKern(vecWidth, as[float64](x), as[float64](a), l0, j0, j1, rs, cs, mode)
	}
	return lanesKern32(vecWidth, as[float32](x), as[float32](a), l0, j0, j1, rs, cs, mode)
}

// dot16 writes the pure-FP16 sums of four A rows (stride lda) against one
// packed block bp of nb = len(s)/4 columns into s (4×nb): s = fl16(s +
// fl16(a(r)[l]·b(jj)[l])) over increasing l — DOT_BODY with a binary16
// round trip after every operation where the host has F16C, else dot16Go.
func dot16(k int, a []float32, lda int, bp, s []float32) {
	nb := len(s) / 4
	_, _, _ = a[:3*lda+k], bp[:nb*k], s[4*nb-1]
	if goRows(true) {
		dot16Go(k, a, lda, bp, s)
		return
	}
	dotKern16(vecWidth, k, a, lda, bp, s, nb)
}

// transpose stores the rows×cols matrix src (stride lds) transposed into
// dst (stride ldd), dst[c·ldd+r] = D(src[r·lds+c]), for the lane layouts:
// float64 in one SSE2 form, binary32 — from float64 narrowed on the way in,
// or to float64 widened on the way out — in another, at every width but Go's.
func transpose[S, D float32 | float64](rows, cols int, src []S, lds int, dst []D, ldd int) {
	if vecWidth == widthGo || rows <= 0 || cols <= 0 {
		transposeGo(rows, cols, src, lds, dst, ldd)
		return
	}
	_, _ = src[(rows-1)*lds+cols-1], dst[(cols-1)*ldd+rows-1]
	if is64[S]() && is64[D]() {
		transposeSSE2(rows, cols, as[float64](src), lds, as[float64](dst), ldd)
		return
	}
	transpose32SSE2(rows, cols, ptr(src), lds, ptr(dst), ldd, is64[S](), is64[D]())
}

// goRows reports whether the row kernels run in Go: at Go's width, and for
// binary16 (h16) without F16C.
func goRows(h16 bool) bool { return vecWidth == widthGo || h16 && !useF16C }

// ptr is the address of s's first element (of its array if s is empty).
func ptr[T float32 | float64](s []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

// convert writes the rows×cols block src (stride lds) rounded to binary32,
// and on to binary16 when h16, into dst (stride ldd) as float32 or widened
// back to float64 (CVT_BODY; convertGo is its portable form).
func convert[D float32 | float64](rows, cols int, src []float64, lds int, dst []D, ldd int, h16 bool) {
	if goRows(h16) || rows <= 0 || cols <= 0 {
		convertGo(rows, cols, src, lds, dst, ldd, h16)
		return
	}
	_, _ = src[(rows-1)*lds+cols-1], dst[(rows-1)*ldd+cols-1]
	cvtKern(vecWidth, rows, cols, src, lds, ptr(dst), ldd, is64[D](), h16)
}

// combine stores the bare binary32 sums s of a row into c, c = al⊗s ⊕
// be⊗c (c read only when readC), in binary32 or, h16, binary16 arithmetic
// (COMB_BODY; combineGo is its portable form).
func combine(c []float64, s []float32, al, be float32, readC, h16 bool) {
	if goRows(h16) || len(s) == 0 {
		combineGo(c, s, al, be, readC, h16)
		return
	}
	combKern(vecWidth, c[:len(s)], s, al, be, readC, h16)
}

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
func transposeGo[S, D float32 | float64](rows, cols int, src []S, lds int, dst []D, ldd int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*lds:][:cols] {
			dst[c*ldd+r] = D(v)
		}
	}
}

// convertGo is convert in portable Go: float32(v), fp16.QuantF32 of it when
// h16, and D of that — prec.Quantize's rounding for D float64.
func convertGo[D float32 | float64](rows, cols int, src []float64, lds int, dst []D, ldd int, h16 bool) {
	for r := 0; r < rows; r++ {
		d := dst[r*ldd:][:cols]
		for c, v := range src[r*lds:][:cols] {
			f := float32(v)
			if h16 {
				f = fp16.QuantF32(f)
			}
			d[c] = D(f)
		}
	}
}

// combineGo is combine in portable Go: t = al·s, and t + be·float32(c) when
// readC, every operation and the binary32 image of c rounded to binary16
// when h16 — the seed kernels' MulHalf/AddHalf chain bit for bit.
func combineGo(c []float64, s []float32, al, be float32, readC, h16 bool) {
	q := func(f float32) float32 {
		if h16 {
			return fp16.QuantF32(f)
		}
		return f
	}
	for j, v := range s {
		t := q(al * v)
		if readC {
			t = q(t + q(be*q(float32(c[j]))))
		}
		c[j] = float64(t)
	}
}
