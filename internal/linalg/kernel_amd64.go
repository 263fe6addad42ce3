//go:build amd64

package linalg

import (
	"runtime"
	"unsafe"

	"geompc/internal/hostcpu"
)

// The micro-kernels on amd64: one shape — four A rows × two vectors of B
// columns, k innermost — assembled at three vector widths (SSE2, AVX2,
// AVX-512; kernel_amd64.s) in float64 and in float32, which holds twice the
// columns per block. Each vector lane holds ONE output element's
// accumulator, so every element sums its products in strictly increasing l
// with one rounding per multiply and one per add: packed MULPD/ADDPD,
// MULPS/ADDPS and their VEX/EVEX forms are per-lane IEEE-754 operations
// identical to the scalar ones, which makes every width bit-identical to
// the seed triple loops and to each other (pinned by the golden digests,
// run once per width). FMA is deliberately not used: it would skip the
// intermediate rounding and change results.
//
// The width is the widest the processor implements and the OS saves the
// registers of (hostcpu, read once at init); useF16C says whether the
// pure-FP16 GEMM and the binary16 row kernels round with F16C or in Go.
// Neither is a setting: results do not depend on them, only speed does.
var vecWidth, useF16C = hostKernels()

func hostKernels() (width, bool) {
	switch {
	case hostcpu.AVX512F:
		return widthAVX512, hostcpu.F16C
	case hostcpu.AVX2:
		return widthAVX2, hostcpu.F16C
	}
	return widthSSE2, hostcpu.F16C
}

// dot64 computes the 4×nb block C = alpha·A·Bᵀ + beta·C (C not read when
// beta == 0) at the active width: a holds four rows of stride lda, bp one
// packed block of nb = nbOf[float64]() B columns (bp[l·nb+jj] = b(jj)[l]).
func dot64(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int) {
	nb := vecWidth.nb()
	_, _, _ = a[:3*lda+k], bp[:nb*k], c[3*ldc+nb-1]
	switch vecWidth {
	case widthAVX512:
		dotKernAVX512(k, a, lda, bp, alpha, beta, c, ldc)
	case widthAVX2:
		dotKernAVX2(k, a, lda, bp, alpha, beta, c, ldc)
	case widthSSE2:
		dotKernSSE2(k, a, lda, bp, alpha, beta, c, ldc)
	default:
		dotKernGo(k, a, lda, bp, alpha, beta, c, ldc)
	}
}

// dot32 is dot64 on binary32 lanes, nb = nbOf[float32]() columns per
// block, storing the bare sums: the float32 GEMMs combine them with C
// (combine).
func dot32(k int, a []float32, lda int, bp []float32, c []float32, ldc int) {
	nb := nbOf[float32]()
	_, _, _ = a[:3*lda+k], bp[:nb*k], c[3*ldc+nb-1]
	switch vecWidth {
	case widthAVX512:
		dotKern32AVX512(k, a, lda, bp, c, ldc)
	case widthAVX2:
		dotKern32AVX2(k, a, lda, bp, c, ldc)
	case widthSSE2:
		dotKern32SSE2(k, a, lda, bp, c, ldc)
	default:
		dotKernGo(k, a, lda, bp, 1, 0, c, ldc)
	}
}

// sub is the fused-subtract entry point of the same shape, on float64 or
// binary32 lanes: the 4×nb block of C (nb = nbOf[T]()) is the starting
// value of the accumulators and every product is subtracted from it,
// c −= a[l]·b[l] in increasing l.
func sub[T float32 | float64](k int, a []T, lda int, bp, c []T, ldc int) {
	nb := nbOf[T]()
	_, _, _ = a[:3*lda+k], bp[:nb*k], c[3*ldc+nb-1]
	if is64[T]() {
		a, bp, c := as[float64](a), as[float64](bp), as[float64](c)
		switch vecWidth {
		case widthAVX512:
			subKernAVX512(k, a, lda, bp, c, ldc)
			return
		case widthAVX2:
			subKernAVX2(k, a, lda, bp, c, ldc)
			return
		case widthSSE2:
			subKernSSE2(k, a, lda, bp, c, ldc)
			return
		}
	} else {
		a, bp, c := as[float32](a), as[float32](bp), as[float32](c)
		switch vecWidth {
		case widthAVX512:
			subKern32AVX512(k, a, lda, bp, c, ldc)
			return
		case widthAVX2:
			subKern32AVX2(k, a, lda, bp, c, ldc)
			return
		case widthSSE2:
			subKern32SSE2(k, a, lda, bp, c, ldc)
			return
		}
	}
	subKernGo(k, a, lda, bp, c, ldc)
}

// lanes runs the lane kernel (lanesGo) at the active width on a group of
// nbOf[T]() rows, float64 or binary32.
func lanes[T float32 | float64](x, a []T, l0, j0, j1, rs, cs, mode int) int {
	if j1 > j0 {
		_, _ = x[j1*nbOf[T]()-1], a[(j1-1-j0)*rs+(j1-1-l0)*cs]
	}
	if is64[T]() {
		x, a := as[float64](x), as[float64](a)
		switch vecWidth {
		case widthAVX512:
			return lanesKernAVX512(x, a, l0, j0, j1, rs, cs, mode)
		case widthAVX2:
			return lanesKernAVX2(x, a, l0, j0, j1, rs, cs, mode)
		case widthSSE2:
			return lanesKernSSE2(x, a, l0, j0, j1, rs, cs, mode)
		}
	} else {
		x, a := as[float32](x), as[float32](a)
		switch vecWidth {
		case widthAVX512:
			return lanesKern32AVX512(x, a, l0, j0, j1, rs, cs, mode)
		case widthAVX2:
			return lanesKern32AVX2(x, a, l0, j0, j1, rs, cs, mode)
		case widthSSE2:
			return lanesKern32SSE2(x, a, l0, j0, j1, rs, cs, mode)
		}
	}
	return lanesGo(nbOf[T](), x, a, l0, j0, j1, rs, cs, mode)
}

// dot16 writes the pure-FP16 sums of four A rows (stride lda) against one
// packed block bp of nb = len(s)/4 columns into s (4×nb): s = fl16(s +
// fl16(a(r)[l]·b(jj)[l])) over increasing l — DOT_BODY with a binary16
// round trip after every operation where the host has F16C, else dot16Go.
func dot16(k int, a []float32, lda int, bp, s []float32) {
	nb := len(s) / 4
	_, _, _ = a[:3*lda+k], bp[:nb*k], s[4*nb-1]
	switch {
	case goRows(true):
		dot16Go(k, a, lda, bp, s)
	case vecWidth == widthAVX512:
		dotKern16AVX512(k, a, lda, bp, s, nb)
	case vecWidth == widthAVX2:
		dotKern16AVX2(k, a, lda, bp, s, nb)
	default:
		dotKern16SSE2(k, a, lda, bp, s, nb)
	}
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
	switch vecWidth {
	case widthAVX512:
		cvtKernAVX512(rows, cols, src, lds, ptr(dst), ldd, is64[D](), h16)
	case widthAVX2:
		cvtKernAVX2(rows, cols, src, lds, ptr(dst), ldd, is64[D](), h16)
	default:
		cvtKernSSE2(rows, cols, src, lds, ptr(dst), ldd, is64[D](), h16)
	}
}

// combine stores the bare binary32 sums s of a row into c, c = al⊗s ⊕
// be⊗c (c read only when readC), in binary32 or, h16, binary16 arithmetic
// (COMB_BODY; combineGo is its portable form).
func combine(c []float64, s []float32, al, be float32, readC, h16 bool) {
	if goRows(h16) || len(s) == 0 {
		combineGo(c, s, al, be, readC, h16)
		return
	}
	c = c[:len(s)]
	switch vecWidth {
	case widthAVX512:
		combKernAVX512(c, s, al, be, readC, h16)
	case widthAVX2:
		combKernAVX2(c, s, al, be, readC, h16)
	default:
		combKernSSE2(c, s, al, be, readC, h16)
	}
}

//go:noescape
func transposeSSE2(rows, cols int, src []float64, lds int, dst []float64, ldd int)

//go:noescape
func transpose32SSE2(rows, cols int, src unsafe.Pointer, lds int, dst unsafe.Pointer, ldd int, narrow, widen bool)

//go:noescape
func lanesKernSSE2(x, a []float64, l0, j0, j1, rs, cs, mode int) int

//go:noescape
func lanesKern32SSE2(x, a []float32, l0, j0, j1, rs, cs, mode int) int

//go:noescape
func lanesKernAVX2(x, a []float64, l0, j0, j1, rs, cs, mode int) int

//go:noescape
func lanesKern32AVX2(x, a []float32, l0, j0, j1, rs, cs, mode int) int

//go:noescape
func lanesKernAVX512(x, a []float64, l0, j0, j1, rs, cs, mode int) int

//go:noescape
func lanesKern32AVX512(x, a []float32, l0, j0, j1, rs, cs, mode int) int

//go:noescape
func dotKernSSE2(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int)

//go:noescape
func subKernSSE2(k int, a []float64, lda int, bp []float64, c []float64, ldc int)

//go:noescape
func dotKernAVX2(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int)

//go:noescape
func subKernAVX2(k int, a []float64, lda int, bp []float64, c []float64, ldc int)

//go:noescape
func dotKernAVX512(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int)

//go:noescape
func subKernAVX512(k int, a []float64, lda int, bp []float64, c []float64, ldc int)

//go:noescape
func dotKern32SSE2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func subKern32SSE2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func dotKern32AVX2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func subKern32AVX2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func dotKern32AVX512(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func subKern32AVX512(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func dotKern16SSE2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func cvtKernSSE2(rows, cols int, src []float64, lds int, dst unsafe.Pointer, ldd int, wide, h16 bool)

//go:noescape
func combKernSSE2(c []float64, s []float32, al, be float32, readC, h16 bool)

//go:noescape
func dotKern16AVX2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func cvtKernAVX2(rows, cols int, src []float64, lds int, dst unsafe.Pointer, ldd int, wide, h16 bool)

//go:noescape
func combKernAVX2(c []float64, s []float32, al, be float32, readC, h16 bool)

//go:noescape
func dotKern16AVX512(k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func cvtKernAVX512(rows, cols int, src []float64, lds int, dst unsafe.Pointer, ldd int, wide, h16 bool)

//go:noescape
func combKernAVX512(c []float64, s []float32, al, be float32, readC, h16 bool)

// The binary32 underflow contract (doc.go) on amd64: MXCSR flush-to-zero
// (bit 15) and denormals-are-zero (bit 6) govern every SSE instruction, so
// one scoped region covers the micro-kernels above and the compiler's
// scalar MULSS/ADDSS/DIVSS/CVTSD2SS in the pure-Go panels alike. DAZ is
// implemented by every amd64 processor.
const mxcsrFlush = 1<<15 | 1<<6

func getMXCSR() uint32

func setMXCSR(v uint32)

// enterFlush32 switches the calling thread to flush-to-zero arithmetic and
// returns the MXCSR to hand back to leaveFlush32. MXCSR is per OS thread
// and the Go scheduler neither saves nor restores it, so the goroutine is
// wired to its thread first: a preempted kernel resumes on the same thread
// and no other goroutine can run on it — and inherit the mode — meanwhile.
// Use as `defer leaveFlush32(enterFlush32())`, which also restores the mode
// when a kernel panics.
func enterFlush32() uint32 {
	runtime.LockOSThread()
	old := getMXCSR()
	setMXCSR(old | mxcsrFlush)
	return old
}

func leaveFlush32(old uint32) {
	setMXCSR(old)
	runtime.UnlockOSThread()
}
