package linalg

import (
	"geompc/internal/fp16"
	"geompc/internal/prec"
)

// The NT GEMM family is built around register-blocked micro-kernels
// (dotNT4x2f64 / dotNT4x4f32 in kernel_amd64.s, with portable Go fallbacks
// in kernel_generic.go): a block of independent accumulators covers a 4×2
// (fp64) or 4×4 (f32) tile of C, with the k-loop innermost so each
// accumulator sums its products in exactly the order the naive triple loop
// would — the blocked kernels are bit-identical to the seed kernels for
// every input (pinned by the golden digest tests). B is repacked into an
// interleaved layout (bp[2l+jj] / bq[4l+jj]) so one vector load pulls the
// operand for all lanes; lanes never mix elements of one accumulation, so
// no reassociation happens.

// GemmNT computes C = alpha*A*Bᵀ + beta*C in float64.
// A is m×k (stride lda), B is n×k (stride ldb), C is m×n (stride ldc).
// Because B enters transposed, the inner loop is a dot product of two
// row-major rows, which is the cache-friendly orientation for the tile
// Cholesky update A[m][n] -= A[m][k]·A[n][k]ᵀ.
func GemmNT(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || m < 4 {
		// No dot-product work (or no full 4-row block): the scalar tail
		// covers everything without packing.
		gemmNT64Tail(0, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	bp, bpp := f64Scratch(((n + 1) &^ 1) * k)
	interleave2f64(bp, b, n, k, ldb)
	gemmNT64Panel(0, m, n, k, alpha, a, lda, b, ldb, bp, beta, c, ldc)
	putF64(bpp)
}

func gemmNT64Panel(i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, bp []float64, beta float64, c []float64, ldc int) {
	var s4 [16]float64
	var s [8]float64
	i := i0
	for ; i+4 <= i1; i += 4 {
		ai0 := a[(i+0)*lda:][:k]
		ai1 := a[(i+1)*lda:][:k]
		ai2 := a[(i+2)*lda:][:k]
		ai3 := a[(i+3)*lda:][:k]
		ci0 := c[(i+0)*ldc:][:n]
		ci1 := c[(i+1)*ldc:][:n]
		ci2 := c[(i+2)*ldc:][:n]
		ci3 := c[(i+3)*ldc:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			dotNT4x4f64(k, ai0, ai1, ai2, ai3, bp[j*k:], bp[(j+2)*k:], &s4)
			if beta == 0 { // BLAS: C is not read when beta == 0
				ci0[j+0], ci0[j+1] = alpha*s4[0], alpha*s4[1]
				ci0[j+2], ci0[j+3] = alpha*s4[2], alpha*s4[3]
				ci1[j+0], ci1[j+1] = alpha*s4[4], alpha*s4[5]
				ci1[j+2], ci1[j+3] = alpha*s4[6], alpha*s4[7]
				ci2[j+0], ci2[j+1] = alpha*s4[8], alpha*s4[9]
				ci2[j+2], ci2[j+3] = alpha*s4[10], alpha*s4[11]
				ci3[j+0], ci3[j+1] = alpha*s4[12], alpha*s4[13]
				ci3[j+2], ci3[j+3] = alpha*s4[14], alpha*s4[15]
			} else {
				for jj := 0; jj < 4; jj++ {
					ci0[j+jj] = alpha*s4[jj] + beta*ci0[j+jj]
					ci1[j+jj] = alpha*s4[4+jj] + beta*ci1[j+jj]
					ci2[j+jj] = alpha*s4[8+jj] + beta*ci2[j+jj]
					ci3[j+jj] = alpha*s4[12+jj] + beta*ci3[j+jj]
				}
			}
		}
		if j+2 <= n {
			dotNT4x2f64(k, ai0, ai1, ai2, ai3, bp[j*k:], &s)
			if beta == 0 {
				ci0[j+0], ci0[j+1] = alpha*s[0], alpha*s[1]
				ci1[j+0], ci1[j+1] = alpha*s[2], alpha*s[3]
				ci2[j+0], ci2[j+1] = alpha*s[4], alpha*s[5]
				ci3[j+0], ci3[j+1] = alpha*s[6], alpha*s[7]
			} else {
				ci0[j+0] = alpha*s[0] + beta*ci0[j+0]
				ci0[j+1] = alpha*s[1] + beta*ci0[j+1]
				ci1[j+0] = alpha*s[2] + beta*ci1[j+0]
				ci1[j+1] = alpha*s[3] + beta*ci1[j+1]
				ci2[j+0] = alpha*s[4] + beta*ci2[j+0]
				ci2[j+1] = alpha*s[5] + beta*ci2[j+1]
				ci3[j+0] = alpha*s[6] + beta*ci3[j+0]
				ci3[j+1] = alpha*s[7] + beta*ci3[j+1]
			}
			j += 2
		}
		if j < n { // odd n: the pair block's second lane is zero padding
			dotNT4x2f64(k, ai0, ai1, ai2, ai3, bp[j*k:], &s)
			if beta == 0 {
				ci0[j], ci1[j], ci2[j], ci3[j] = alpha*s[0], alpha*s[2], alpha*s[4], alpha*s[6]
			} else {
				ci0[j] = alpha*s[0] + beta*ci0[j]
				ci1[j] = alpha*s[2] + beta*ci1[j]
				ci2[j] = alpha*s[4] + beta*ci2[j]
				ci3[j] = alpha*s[6] + beta*ci3[j]
			}
		}
	}
	gemmNT64Tail(i, i1, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// gemmNT64Tail is the seed scalar loop over rows [i0,i1) — the remainder
// rows of a panel (fewer than four) read B directly in row-major form.
func gemmNT64Tail(i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := i0; i < i1; i++ {
		ai := a[i*lda:][:k]
		ci := c[i*ldc:][:n]
		if beta == 0 {
			for j := 0; j < n; j++ {
				bj := b[j*ldb:][:k]
				var s float64
				for l := 0; l < k; l++ {
					s += ai[l] * bj[l]
				}
				ci[j] = alpha * s
			}
		} else {
			for j := 0; j < n; j++ {
				bj := b[j*ldb:][:k]
				var s float64
				for l := 0; l < k; l++ {
					s += ai[l] * bj[l]
				}
				ci[j] = alpha*s + beta*ci[j]
			}
		}
	}
}

// interleave2f64 packs the n×k row-major matrix (stride ld) into
// column-pair blocks: dst[jp·2k + 2l + jj] = src[(2jp+jj)·ld + l], the
// operand layout of dotNT4x2f64. An odd final row is padded with zeros
// (its lane is computed and discarded — zero products never perturb the
// other lane because packed ops are per-lane).
func interleave2f64(dst, src []float64, n, k, ld int) {
	for jp := 0; 2*jp < n; jp++ {
		out := dst[jp*2*k:][:2*k]
		r0 := src[2*jp*ld:][:k]
		if 2*jp+1 < n {
			r1 := src[(2*jp+1)*ld:][:k]
			for l := 0; l < k; l++ {
				out[2*l] = r0[l]
				out[2*l+1] = r1[l]
			}
		} else {
			for l := 0; l < k; l++ {
				out[2*l] = r0[l]
				out[2*l+1] = 0
			}
		}
	}
}

// GemmNN computes C = alpha*A*B + beta*C in float64.
// A is m×k, B is k×n, C is m×n. Used by the GEMM benchmark (Fig 1) and the
// prediction path.
func GemmNN(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ci := c[i*ldc:][:n]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		ai := a[i*lda:][:k]
		for l := 0; l < k; l++ {
			v := alpha * ai[l]
			bl := b[l*ldb:][:n]
			for j := 0; j < n; j++ {
				ci[j] += v * bl[j]
			}
		}
	}
}

// gemmNT32Panel is the shared float32-accumulation micro-kernel body for
// rows [i0,i1): af and bf hold the packed (and, for the emulated formats,
// input-quantized) operands with row stride k. The beta == 0 test is against
// the caller's float64 beta, matching the seed kernels exactly (a beta that
// underflows to zero only in float32 must still take the read-C path).
func gemmNT32Panel(i0, i1, n, k int, al float32, betaZero bool, be float32, af, bf, bq []float32, c []float64, ldc int) {
	var s [16]float32
	i := i0
	for ; i+4 <= i1; i += 4 {
		ai0 := af[(i+0)*k:][:k]
		ai1 := af[(i+1)*k:][:k]
		ai2 := af[(i+2)*k:][:k]
		ai3 := af[(i+3)*k:][:k]
		ci0 := c[(i+0)*ldc:][:n]
		ci1 := c[(i+1)*ldc:][:n]
		ci2 := c[(i+2)*ldc:][:n]
		ci3 := c[(i+3)*ldc:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			dotNT4x4f32(k, ai0, ai1, ai2, ai3, bq[j*k:], &s)
			if betaZero {
				ci0[j+0], ci0[j+1] = float64(al*s[0]), float64(al*s[1])
				ci0[j+2], ci0[j+3] = float64(al*s[2]), float64(al*s[3])
				ci1[j+0], ci1[j+1] = float64(al*s[4]), float64(al*s[5])
				ci1[j+2], ci1[j+3] = float64(al*s[6]), float64(al*s[7])
				ci2[j+0], ci2[j+1] = float64(al*s[8]), float64(al*s[9])
				ci2[j+2], ci2[j+3] = float64(al*s[10]), float64(al*s[11])
				ci3[j+0], ci3[j+1] = float64(al*s[12]), float64(al*s[13])
				ci3[j+2], ci3[j+3] = float64(al*s[14]), float64(al*s[15])
			} else {
				for jj := 0; jj < 4; jj++ {
					ci0[j+jj] = float64(al*s[jj] + be*float32(ci0[j+jj]))
					ci1[j+jj] = float64(al*s[4+jj] + be*float32(ci1[j+jj]))
					ci2[j+jj] = float64(al*s[8+jj] + be*float32(ci2[j+jj]))
					ci3[j+jj] = float64(al*s[12+jj] + be*float32(ci3[j+jj]))
				}
			}
		}
		if j < n { // n % 4 remainder: the quad block's upper lanes are padding
			dotNT4x4f32(k, ai0, ai1, ai2, ai3, bq[j*k:], &s)
			for jj := 0; j+jj < n; jj++ {
				if betaZero {
					ci0[j+jj] = float64(al * s[jj])
					ci1[j+jj] = float64(al * s[4+jj])
					ci2[j+jj] = float64(al * s[8+jj])
					ci3[j+jj] = float64(al * s[12+jj])
				} else {
					ci0[j+jj] = float64(al*s[jj] + be*float32(ci0[j+jj]))
					ci1[j+jj] = float64(al*s[4+jj] + be*float32(ci1[j+jj]))
					ci2[j+jj] = float64(al*s[8+jj] + be*float32(ci2[j+jj]))
					ci3[j+jj] = float64(al*s[12+jj] + be*float32(ci3[j+jj]))
				}
			}
		}
	}
	for ; i < i1; i++ {
		ai := af[i*k:][:k]
		ci := c[i*ldc:][:n]
		if betaZero {
			for j := 0; j < n; j++ {
				bj := bf[j*k:][:k]
				var s float32
				for l := 0; l < k; l++ {
					s += ai[l] * bj[l]
				}
				ci[j] = float64(al * s)
			}
		} else {
			for j := 0; j < n; j++ {
				bj := bf[j*k:][:k]
				var s float32
				for l := 0; l < k; l++ {
					s += ai[l] * bj[l]
				}
				ci[j] = float64(al*s + be*float32(ci[j]))
			}
		}
	}
}

// gemmNT32 packs with the format's input quantizer (pk) — once, row-major,
// for the scalar-tail rows — then quad-interleaves B for the SIMD kernel,
// and runs the shared float32 micro-kernel over all m rows.
func gemmNT32(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int, pk func(dst []float32, src []float64, rows, cols, ld int)) {
	if m == 0 || n == 0 {
		return
	}
	defer leaveFlush32(enterFlush32())
	af, afp := f32Scratch(m * k)
	bf, bfp := f32Scratch(n * k)
	pk(af, a, m, k, lda)
	pk(bf, b, n, k, ldb)
	bq, bqp := f32Scratch(((n + 3) &^ 3) * k)
	interleave4f32(bq, bf, n, k)
	al, be := float32(alpha), float32(beta)
	gemmNT32Panel(0, m, n, k, al, beta == 0, be, af, bf, bq, c, ldc)
	putF32(afp)
	putF32(bfp)
	putF32(bqp)
}

// interleave4f32 packs the already-quantized row-major n×k matrix (stride k)
// into column-quad blocks: dst[jq·4k + 4l + jj] = src[(4jq+jj)·k + l], the
// operand layout of dotNT4x4f32. Rows past n are zero padding; their lanes
// are computed and discarded at the store.
func interleave4f32(dst, src []float32, n, k int) {
	for jq := 0; 4*jq < n; jq++ {
		out := dst[jq*4*k:][:4*k]
		for jj := 0; jj < 4; jj++ {
			if 4*jq+jj < n {
				row := src[(4*jq+jj)*k:][:k]
				for l := 0; l < k; l++ {
					out[4*l+jj] = row[l]
				}
			} else {
				for l := 0; l < k; l++ {
					out[4*l+jj] = 0
				}
			}
		}
	}
}

// GemmNT32 computes C = alpha*A*Bᵀ + beta*C with genuine float32 arithmetic
// over float64 storage: inputs are cast to float32, products and sums are
// accumulated in float32, and the float32 result is stored back.
func GemmNT32(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	gemmNT32(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, pack32)
}

// GemmNTFP16x32 emulates the FP16_32 tensor-core GEMM: A and B quantized to
// binary16, multiply-accumulate and C in float32.
func GemmNTFP16x32(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	gemmNT32(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, packFP16)
}

// GemmNTTF32 emulates the TF32 tensor-core GEMM: inputs quantized to TF32,
// float32 accumulation.
func GemmNTTF32(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	gemmNT32(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, packTF32)
}

// GemmNTBF16x32 emulates the BF16_32 tensor-core GEMM: inputs quantized to
// bfloat16, float32 accumulation.
func GemmNTBF16x32(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	gemmNT32(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, packBF16)
}

// GemmNTFP16 emulates the pure-FP16 GEMM: A, B and C in binary16 and the
// accumulator rounded to binary16 after every fused multiply-add, matching
// FP16-accumulate tensor-core mode. The kernel holds every binary16 value as
// its exact float32 image and applies fp16.QuantF32 (round-to-nearest-even
// at binary16 precision) after each multiply and each add — proven
// bit-equivalent to the Half-typed AddHalf/MulHalf chain by the exhaustive
// fp16 tests, and pinned against the seed kernel by the golden digests.
func GemmNTFP16(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	defer leaveFlush32(enterFlush32())
	af, afp := f32Scratch(m * k)
	bf, bfp := f32Scratch(n * k)
	packFP16(af, a, m, k, lda)
	packFP16(bf, b, n, k, ldb)
	alf := fp16.QuantF32(float32(alpha))
	bef := fp16.QuantF32(float32(beta))
	gemmNT16Panel(0, m, n, k, alf, beta == 0, bef, af, bf, c, ldc)
	putF32(afp)
	putF32(bfp)
}

func gemmNT16Panel(i0, i1, n, k int, alf float32, betaZero bool, bef float32, af, bf []float32, c []float64, ldc int) {
	i := i0
	for ; i+4 <= i1; i += 4 {
		ai0 := af[(i+0)*k:][:k]
		ai1 := af[(i+1)*k:][:k]
		ai2 := af[(i+2)*k:][:k]
		ai3 := af[(i+3)*k:][:k]
		ci0 := c[(i+0)*ldc:][:n]
		ci1 := c[(i+1)*ldc:][:n]
		ci2 := c[(i+2)*ldc:][:n]
		ci3 := c[(i+3)*ldc:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			bj0 := bf[(j+0)*k:][:k]
			bj1 := bf[(j+1)*k:][:k]
			bj2 := bf[(j+2)*k:][:k]
			bj3 := bf[(j+3)*k:][:k]
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			var s20, s21, s22, s23 float32
			var s30, s31, s32, s33 float32
			for l := 0; l < k; l++ {
				a0, a1, a2, a3 := ai0[l], ai1[l], ai2[l], ai3[l]
				b0, b1, b2, b3 := bj0[l], bj1[l], bj2[l], bj3[l]
				s00 = fp16.QuantF32(s00 + fp16.QuantF32(a0*b0))
				s01 = fp16.QuantF32(s01 + fp16.QuantF32(a0*b1))
				s02 = fp16.QuantF32(s02 + fp16.QuantF32(a0*b2))
				s03 = fp16.QuantF32(s03 + fp16.QuantF32(a0*b3))
				s10 = fp16.QuantF32(s10 + fp16.QuantF32(a1*b0))
				s11 = fp16.QuantF32(s11 + fp16.QuantF32(a1*b1))
				s12 = fp16.QuantF32(s12 + fp16.QuantF32(a1*b2))
				s13 = fp16.QuantF32(s13 + fp16.QuantF32(a1*b3))
				s20 = fp16.QuantF32(s20 + fp16.QuantF32(a2*b0))
				s21 = fp16.QuantF32(s21 + fp16.QuantF32(a2*b1))
				s22 = fp16.QuantF32(s22 + fp16.QuantF32(a2*b2))
				s23 = fp16.QuantF32(s23 + fp16.QuantF32(a2*b3))
				s30 = fp16.QuantF32(s30 + fp16.QuantF32(a3*b0))
				s31 = fp16.QuantF32(s31 + fp16.QuantF32(a3*b1))
				s32 = fp16.QuantF32(s32 + fp16.QuantF32(a3*b2))
				s33 = fp16.QuantF32(s33 + fp16.QuantF32(a3*b3))
			}
			ci0[j+0] = fp16Store(alf, s00, betaZero, bef, ci0[j+0])
			ci0[j+1] = fp16Store(alf, s01, betaZero, bef, ci0[j+1])
			ci0[j+2] = fp16Store(alf, s02, betaZero, bef, ci0[j+2])
			ci0[j+3] = fp16Store(alf, s03, betaZero, bef, ci0[j+3])
			ci1[j+0] = fp16Store(alf, s10, betaZero, bef, ci1[j+0])
			ci1[j+1] = fp16Store(alf, s11, betaZero, bef, ci1[j+1])
			ci1[j+2] = fp16Store(alf, s12, betaZero, bef, ci1[j+2])
			ci1[j+3] = fp16Store(alf, s13, betaZero, bef, ci1[j+3])
			ci2[j+0] = fp16Store(alf, s20, betaZero, bef, ci2[j+0])
			ci2[j+1] = fp16Store(alf, s21, betaZero, bef, ci2[j+1])
			ci2[j+2] = fp16Store(alf, s22, betaZero, bef, ci2[j+2])
			ci2[j+3] = fp16Store(alf, s23, betaZero, bef, ci2[j+3])
			ci3[j+0] = fp16Store(alf, s30, betaZero, bef, ci3[j+0])
			ci3[j+1] = fp16Store(alf, s31, betaZero, bef, ci3[j+1])
			ci3[j+2] = fp16Store(alf, s32, betaZero, bef, ci3[j+2])
			ci3[j+3] = fp16Store(alf, s33, betaZero, bef, ci3[j+3])
		}
		for ; j < n; j++ {
			bj := bf[j*k:][:k]
			var s0, s1, s2, s3 float32
			for l := 0; l < k; l++ {
				bl := bj[l]
				s0 = fp16.QuantF32(s0 + fp16.QuantF32(ai0[l]*bl))
				s1 = fp16.QuantF32(s1 + fp16.QuantF32(ai1[l]*bl))
				s2 = fp16.QuantF32(s2 + fp16.QuantF32(ai2[l]*bl))
				s3 = fp16.QuantF32(s3 + fp16.QuantF32(ai3[l]*bl))
			}
			ci0[j] = fp16Store(alf, s0, betaZero, bef, ci0[j])
			ci1[j] = fp16Store(alf, s1, betaZero, bef, ci1[j])
			ci2[j] = fp16Store(alf, s2, betaZero, bef, ci2[j])
			ci3[j] = fp16Store(alf, s3, betaZero, bef, ci3[j])
		}
	}
	for ; i < i1; i++ {
		ai := af[i*k:][:k]
		ci := c[i*ldc:][:n]
		for j := 0; j < n; j++ {
			bj := bf[j*k:][:k]
			var s float32
			for l := 0; l < k; l++ {
				s = fp16.QuantF32(s + fp16.QuantF32(ai[l]*bj[l]))
			}
			ci[j] = fp16Store(alf, s, betaZero, bef, ci[j])
		}
	}
}

// fp16Store applies the binary16 alpha/beta combine: t = alpha⊗s and, when
// beta is nonzero, t ⊕ beta⊗fl16(cij) — each ⊗/⊕ a float32 op rounded to
// binary16, matching the seed kernel's MulHalf/AddHalf chain bit-for-bit.
func fp16Store(alf, s float32, betaZero bool, bef float32, cij float64) float64 {
	t := fp16.QuantF32(alf * s)
	if betaZero {
		return float64(t)
	}
	u := fp16.QuantF32(bef * fp16.QuantF32(float32(cij)))
	return float64(fp16.QuantF32(t + u))
}

// GemmNTPrec dispatches the NT GEMM to the kernel for precision p.
func GemmNTPrec(p prec.Precision, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	switch p {
	case prec.FP64:
		GemmNT(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	case prec.FP32:
		GemmNT32(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	case prec.TF32:
		GemmNTTF32(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	case prec.BF16x32:
		GemmNTBF16x32(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	case prec.FP16x32:
		GemmNTFP16x32(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	case prec.FP16:
		GemmNTFP16(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	default:
		panic("linalg: invalid precision " + p.String())
	}
}

// The pack loops below are specialized per format — the seed's
// rq func(float32) float32 closure cost an indirect call per element;
// each loop body here inlines its quantizer.

func pack32(dst []float32, src []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		row := src[i*ld:][:cols]
		out := dst[i*cols:][:cols]
		for j, v := range row {
			out[j] = float32(v)
		}
	}
}

// packTF32 quantizes to TF32 (11-bit significand, float32 exponent range).
func packTF32(dst []float32, src []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		row := src[i*ld:][:cols]
		out := dst[i*cols:][:cols]
		for j, v := range row {
			out[j] = fp16.TF32Round(float32(v))
		}
	}
}

// packBF16 quantizes to bfloat16 (8-bit significand).
func packBF16(dst []float32, src []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		row := src[i*ld:][:cols]
		out := dst[i*cols:][:cols]
		for j, v := range row {
			out[j] = fp16.BF16Round(float32(v))
		}
	}
}

// packFP16 quantizes to binary16, held as exact float32 values.
func packFP16(dst []float32, src []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		row := src[i*ld:][:cols]
		out := dst[i*cols:][:cols]
		for j, v := range row {
			out[j] = fp16.QuantF32(float32(v))
		}
	}
}
