//go:build amd64

package linalg

import (
	"runtime"
	"unsafe"
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
// Each kernel is one declaration whose first argument is the width (2, 4
// or 8 float64 lanes; any other value runs SSE2): its TEXT loads the
// arguments and jumps to that width's body. The Go dispatchers in kernel.go
// pass vecWidth, or run the portable forms at widthGo. The transposes are
// SSE2 at every width.

//go:noescape
func dotKern(w width, k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int)

//go:noescape
func dotKern32(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func dotKern16(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func subKern(w width, k int, a []float64, lda int, bp []float64, c []float64, ldc int)

//go:noescape
func subKern32(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int)

//go:noescape
func lanesKern(w width, x, a []float64, l0, j0, j1, rs, cs, mode int) int

//go:noescape
func lanesKern32(w width, x, a []float32, l0, j0, j1, rs, cs, mode int) int

//go:noescape
func cvtKern(w width, rows, cols int, src []float64, lds int, dst unsafe.Pointer, ldd int, wide, h16 bool)

//go:noescape
func combKern(w width, c []float64, s []float32, al, be float32, readC, h16 bool)

//go:noescape
func transposeSSE2(rows, cols int, src []float64, lds int, dst []float64, ldd int)

//go:noescape
func transpose32SSE2(rows, cols int, src unsafe.Pointer, lds int, dst unsafe.Pointer, ldd int, narrow, widen bool)

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
