//go:build !amd64

package linalg

// Off amd64 the FP64 micro-kernel runs in portable Go (kernel.go); the
// results are bit-identical to every assembled width.
var vecWidth = widthGo

func dot64(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int) {
	dotKernGo(k, a, lda, bp, alpha, beta, c, ldc)
}

func sub64(k int, a []float64, lda int, bp []float64, c []float64, ldc int) {
	subKernGo(k, a, lda, bp, c, ldc)
}

func lanes64(x, a []float64, l0, j0, j1, rs, cs, mode int) int {
	return lanesGo(4, x, a, l0, j0, j1, rs, cs, mode)
}

func lanes32(x, a []float32, l0, j0, j1, rs, cs, mode int) int {
	return lanesGo(8, x, a, l0, j0, j1, rs, cs, mode)
}

func transpose[T float32 | float64](rows, cols int, src []T, lds int, dst []T, ldd int) {
	transposeGo(rows, cols, src, lds, dst, ldd)
}

// Off amd64 there is no hardware binary16 kernel: gemmNT16Panel does all
// rows and no operand carries the B side dotNT4x8f16 would read.
var useF16C = false

func dotNT4x8f16(k int, a, b8 []float32, s *[32]float32) {
	panic("linalg: the F16C kernel exists on amd64 only")
}

// dotNT4x4f32 is the portable form of the SSE2 float32 micro-kernel: lane
// jj is one output element's accumulator, summed in increasing l.
func dotNT4x4f32(k int, a0, a1, a2, a3, bq []float32, s *[16]float32) {
	for i := range s {
		s[i] = 0
	}
	bq = bq[:4*k]
	for l := 0; l < k; l++ {
		b0, b1, b2, b3 := bq[4*l], bq[4*l+1], bq[4*l+2], bq[4*l+3]
		a := a0[l]
		s[0] += a * b0
		s[1] += a * b1
		s[2] += a * b2
		s[3] += a * b3
		a = a1[l]
		s[4] += a * b0
		s[5] += a * b1
		s[6] += a * b2
		s[7] += a * b3
		a = a2[l]
		s[8] += a * b0
		s[9] += a * b1
		s[10] += a * b2
		s[11] += a * b3
		a = a3[l]
		s[12] += a * b0
		s[13] += a * b1
		s[14] += a * b2
		s[15] += a * b3
	}
}

// The binary32 underflow contract (doc.go) is not enforced off amd64: these
// architectures handle subnormals at full speed, and results agree with
// amd64 bit for bit on every run whose float32 intermediates stay clear of
// the binary32 subnormal range (what the golden kernel digests pin).
func enterFlush32() uint32 { return 0 }

func leaveFlush32(uint32) {}
