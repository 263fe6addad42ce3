//go:build !amd64

package linalg

// Portable fallbacks for the SIMD micro-kernel dot products. Lane jj of
// each logical vector is one output element's accumulator, summed in
// strictly increasing l order — the same arithmetic the amd64 SSE2 kernels
// perform per lane, so results are bit-identical across architectures.

func dotNT4x2f64(k int, a0, a1, a2, a3, bp []float64, s *[8]float64) {
	var s00, s01, s10, s11, s20, s21, s30, s31 float64
	bp = bp[:2*k]
	for l := 0; l < k; l++ {
		b0, b1 := bp[2*l], bp[2*l+1]
		a := a0[l]
		s00 += a * b0
		s01 += a * b1
		a = a1[l]
		s10 += a * b0
		s11 += a * b1
		a = a2[l]
		s20 += a * b0
		s21 += a * b1
		a = a3[l]
		s30 += a * b0
		s31 += a * b1
	}
	s[0], s[1], s[2], s[3] = s00, s01, s10, s11
	s[4], s[5], s[6], s[7] = s20, s21, s30, s31
}

func dotNT4x4f64(k int, a0, a1, a2, a3, bp0, bp1 []float64, s *[16]float64) {
	for i := range s {
		s[i] = 0
	}
	bp0 = bp0[:2*k]
	bp1 = bp1[:2*k]
	for l := 0; l < k; l++ {
		b0, b1 := bp0[2*l], bp0[2*l+1]
		b2, b3 := bp1[2*l], bp1[2*l+1]
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
