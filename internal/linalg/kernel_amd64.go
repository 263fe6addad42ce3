//go:build amd64

package linalg

import (
	"runtime"

	"geompc/internal/hostcpu"
)

// The FP64 micro-kernel on amd64: one shape — four A rows × two vectors of
// B columns, k innermost — assembled at three vector widths (SSE2 4×4,
// AVX2 4×8, AVX-512 4×16; kernel_amd64.s). Each vector lane holds ONE
// output element's accumulator, so every element sums its products in
// strictly increasing l with one rounding per multiply and one per add:
// packed MULPD/ADDPD and their VEX/EVEX forms are per-lane IEEE-754
// operations identical to the scalar ones, which makes every width
// bit-identical to the seed triple loops and to each other (pinned by the
// golden digests, run once per width). FMA is deliberately not used: it
// would skip the intermediate rounding and change results.
//
// The width is the widest the processor implements and the OS saves the
// registers of (hostcpu, read once at init); useF16C says whether the
// pure-FP16 GEMM rounds to binary16 with F16C (dotNT4x8f16, an AVX kernel)
// or in Go. Neither is a setting: results do not depend on them, only speed
// does.
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
// packed block of nb = vecWidth.nb() B columns (bp[l·nb+jj] = b(jj)[l]).
func dot64(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int) {
	nb := vecWidth.nb()
	_, _, _ = a[3*lda+k-1], bp[nb*k-1], c[3*ldc+nb-1]
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

// sub64 is the fused-subtract entry point of the same shape: the 4×nb
// block of C is the starting value of the accumulators and every product is
// subtracted from it, c −= a[l]·b[l] in increasing l.
func sub64(k int, a []float64, lda int, bp []float64, c []float64, ldc int) {
	nb := vecWidth.nb()
	_, _, _ = a[3*lda+k-1], bp[nb*k-1], c[3*ldc+nb-1]
	switch vecWidth {
	case widthAVX512:
		subKernAVX512(k, a, lda, bp, c, ldc)
	case widthAVX2:
		subKernAVX2(k, a, lda, bp, c, ldc)
	case widthSSE2:
		subKernSSE2(k, a, lda, bp, c, ldc)
	default:
		subKernGo(k, a, lda, bp, c, ldc)
	}
}

// lanes64 runs the lane kernel (lanesGo) at the active width on a group of
// vecWidth.nb() rows; lanes32 on a group of twice as many binary32 rows.
func lanes64(x, a []float64, l0, j0, j1, rs, cs, mode int) int {
	if j1 > j0 {
		_, _ = x[j1*vecWidth.nb()-1], a[(j1-1-j0)*rs+(j1-1-l0)*cs]
	}
	switch vecWidth {
	case widthAVX512:
		return lanesKernAVX512(x, a, l0, j0, j1, rs, cs, mode)
	case widthAVX2:
		return lanesKernAVX2(x, a, l0, j0, j1, rs, cs, mode)
	case widthSSE2:
		return lanesKernSSE2(x, a, l0, j0, j1, rs, cs, mode)
	}
	return lanesGo(vecWidth.nb(), x, a, l0, j0, j1, rs, cs, mode)
}

func lanes32(x, a []float32, l0, j0, j1, rs, cs, mode int) int {
	if j1 > j0 {
		_, _ = x[j1*2*vecWidth.nb()-1], a[(j1-1-j0)*rs+(j1-1-l0)*cs]
	}
	switch vecWidth {
	case widthAVX512:
		return lanesKern32AVX512(x, a, l0, j0, j1, rs, cs, mode)
	case widthAVX2:
		return lanesKern32AVX2(x, a, l0, j0, j1, rs, cs, mode)
	case widthSSE2:
		return lanesKern32SSE2(x, a, l0, j0, j1, rs, cs, mode)
	}
	return lanesGo(2*vecWidth.nb(), x, a, l0, j0, j1, rs, cs, mode)
}

// transpose stores the rows×cols matrix src (stride lds) transposed into
// dst (stride ldd), dst[c·ldd+r] = src[r·lds+c], for the lane layouts. It
// moves data only: float64 takes one SSE2 form at every width but Go's.
func transpose[T float32 | float64](rows, cols int, src []T, lds int, dst []T, ldd int) {
	s, ok := any(src).([]float64)
	if !ok || vecWidth == widthGo || rows <= 0 || cols <= 0 {
		transposeGo(rows, cols, src, lds, dst, ldd)
		return
	}
	d := any(dst).([]float64)
	_, _ = s[(rows-1)*lds+cols-1], d[(cols-1)*ldd+rows-1]
	transposeSSE2(rows, cols, s, lds, d, ldd)
}

//go:noescape
func transposeSSE2(rows, cols int, src []float64, lds int, dst []float64, ldd int)

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

// dotNT4x4f32 computes s[i*4+jj] = Σ_l ai[l]·b(jj)[l] for four A rows
// against one quad-interleaved B block (bq[4l+jj] = b(jj)[l]). k > 0.
//
//go:noescape
func dotNT4x4f32(k int, a0, a1, a2, a3, bq []float32, s *[16]float32)

// dotNT4x8f16 computes the pure-FP16 sums of four A rows (a, row stride k)
// against one block of eight B columns (b8[8l+jj] = b(jj)[l]):
// s[8r+jj] = fl16(s + fl16(a(r)[l]·b(jj)[l])) over increasing l, every value
// a binary16 number held in a float32 lane. k > 0; needs useF16C.
//
//go:noescape
func dotNT4x8f16(k int, a, b8 []float32, s *[32]float32)

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
