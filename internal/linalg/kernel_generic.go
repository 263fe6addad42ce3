//go:build !amd64

package linalg

// Off amd64 the micro-kernels run in portable Go (kernel.go); the results
// are bit-identical to every assembled width.
var vecWidth = widthGo

func dot64(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int) {
	dotKernGo(k, a, lda, bp, alpha, beta, c, ldc)
}

func dot32(k int, a []float32, lda int, bp []float32, c []float32, ldc int) {
	dotKernGo(k, a, lda, bp, 1, 0, c, ldc)
}

func sub[T float32 | float64](k int, a []T, lda int, bp, c []T, ldc int) {
	subKernGo(k, a, lda, bp, c, ldc)
}

func lanes[T float32 | float64](x, a []T, l0, j0, j1, rs, cs, mode int) int {
	return lanesGo(nbOf[T](), x, a, l0, j0, j1, rs, cs, mode)
}

func transpose[S, D float32 | float64](rows, cols int, src []S, lds int, dst []D, ldd int) {
	transposeGo(rows, cols, src, lds, dst, ldd)
}

func convert[D float32 | float64](rows, cols int, src []float64, lds int, dst []D, ldd int, h16 bool) {
	convertGo(rows, cols, src, lds, dst, ldd, h16)
}

func combine(c []float64, s []float32, al, be float32, readC, h16 bool) {
	combineGo(c, s, al, be, readC, h16)
}

// Off amd64 there is no hardware binary16 kernel: the pure-FP16 GEMM runs
// dot16Go.
var useF16C = false

func dot16(k int, a []float32, lda int, bp, s []float32) { dot16Go(k, a, lda, bp, s) }

// The binary32 underflow contract (doc.go) is not enforced off amd64: these
// architectures handle subnormals at full speed, and results agree with
// amd64 bit for bit on every run whose float32 intermediates stay clear of
// the binary32 subnormal range (what the golden kernel digests pin).
func enterFlush32() uint32 { return 0 }

func leaveFlush32(uint32) {}
