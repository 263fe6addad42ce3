//go:build !amd64

package linalg

import "unsafe"

// Off amd64 vecWidth is widthGo and the dispatchers in kernel.go run the
// portable kernels, bit-identical to every assembled width; these stubs for
// the assembled ones are never called.

func dotKern(w width, k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int) {
}

func dotKern32(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int) {}

func dotKern16(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int) {}

func subKern(w width, k int, a []float64, lda int, bp []float64, c []float64, ldc int) {}

func subKern32(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int) {}

func lanesKern(w width, x, a []float64, l0, j0, j1, rs, cs, mode int) int { return 0 }

func lanesKern32(w width, x, a []float32, l0, j0, j1, rs, cs, mode int) int { return 0 }

func cvtKern(w width, rows, cols int, src []float64, lds int, dst unsafe.Pointer, ldd int, wide, h16 bool) {
}

func combKern(w width, c []float64, s []float32, al, be float32, readC, h16 bool) {}

func transposeSSE2(rows, cols int, src []float64, lds int, dst []float64, ldd int) {}

func transpose32SSE2(rows, cols int, src unsafe.Pointer, lds int, dst unsafe.Pointer, ldd int, narrow, widen bool) {
}

// The binary32 underflow contract (doc.go) is not enforced off amd64: these
// architectures handle subnormals at full speed, and results agree with
// amd64 bit for bit on every run whose float32 intermediates stay clear of
// the binary32 subnormal range (what the golden kernel digests pin).
func enterFlush32() uint32 { return 0 }

func leaveFlush32(uint32) {}
