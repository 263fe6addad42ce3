package linalg

import "geompc/internal/prec"

// SyrkLN computes C = alpha·A·Aᵀ + beta·C on the lower triangle of the n×n
// matrix C (stride ldc), with A n×k (stride lda), in float64. This is the
// diagonal-tile update A[m][m] -= A[m][k]·A[m][k]ᵀ of Algorithm 1 (alpha=-1,
// beta=1). A is packed once as the B operand and the GEMM micro-kernel runs
// over the column blocks at or below the diagonal; a block the diagonal
// crosses stores only j ≤ i. Each element is the same l-ordered sum as in
// the scalar loop: bit-identical.
func SyrkLN(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	i := 0
	if k > 0 && n >= 4 {
		nb := vecWidth.nb()
		bp, bpp := packB64Scratch(a, n, k, lda)
		for ; i+4 <= n; i += 4 {
			ai, ci := a[i*lda:], c[i*ldc:]
			j := 0
			for ; j+nb <= i+1; j += nb { // wholly at or below the diagonal of all four rows
				dot64(k, ai, lda, bp[j*k:], alpha, beta, ci[j:], ldc)
			}
			for ; j <= i+3; j += nb { // row i+r keeps columns j..i+r
				dotPartial64(k, ai, lda, bp[j*k:], alpha, beta, ci[j:], ldc, i-j+1, 1)
			}
		}
		putF64(bpp)
	}
	for ; i < n; i++ {
		gemmNT64Tail(i, i+1, i+1, k, alpha, a, lda, a, lda, beta, c, ldc)
	}
}

// SyrkLN32 is SyrkLN in genuine float32 arithmetic over float64 storage
// (full-FP32 baseline only; the adaptive framework always runs SYRK in FP64
// because it updates diagonal tiles).
func SyrkLN32(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	defer leaveFlush32(enterFlush32())
	af, afp := f32Scratch(n * k)
	pack32(af, a, n, k, lda)
	al, be := float32(alpha), float32(beta)
	betaZero := beta == 0
	syrkLN32Panel(0, n, k, al, betaZero, be, af, c, ldc)
	putF32(afp)
}

func syrkLN32Panel(i0, i1, k int, al float32, betaZero bool, be float32, af []float32, c []float64, ldc int) {
	i := i0
	for ; i+4 <= i1; i += 4 {
		ai0 := af[(i+0)*k:][:k]
		ai1 := af[(i+1)*k:][:k]
		ai2 := af[(i+2)*k:][:k]
		ai3 := af[(i+3)*k:][:k]
		for j := 0; j <= i; j++ {
			aj := af[j*k:][:k]
			var s0, s1, s2, s3 float32
			for l := 0; l < k; l++ {
				alv := aj[l]
				s0 += ai0[l] * alv
				s1 += ai1[l] * alv
				s2 += ai2[l] * alv
				s3 += ai3[l] * alv
			}
			if betaZero {
				c[(i+0)*ldc+j] = float64(al * s0)
				c[(i+1)*ldc+j] = float64(al * s1)
				c[(i+2)*ldc+j] = float64(al * s2)
				c[(i+3)*ldc+j] = float64(al * s3)
			} else {
				c[(i+0)*ldc+j] = float64(al*s0 + be*float32(c[(i+0)*ldc+j]))
				c[(i+1)*ldc+j] = float64(al*s1 + be*float32(c[(i+1)*ldc+j]))
				c[(i+2)*ldc+j] = float64(al*s2 + be*float32(c[(i+2)*ldc+j]))
				c[(i+3)*ldc+j] = float64(al*s3 + be*float32(c[(i+3)*ldc+j]))
			}
		}
		for r := 1; r < 4; r++ {
			ar := af[(i+r)*k:][:k]
			for j := i + 1; j <= i+r; j++ {
				aj := af[j*k:][:k]
				var s float32
				for l := 0; l < k; l++ {
					s += ar[l] * aj[l]
				}
				if betaZero {
					c[(i+r)*ldc+j] = float64(al * s)
				} else {
					c[(i+r)*ldc+j] = float64(al*s + be*float32(c[(i+r)*ldc+j]))
				}
			}
		}
	}
	for ; i < i1; i++ {
		ai := af[i*k:][:k]
		for j := 0; j <= i; j++ {
			aj := af[j*k:][:k]
			var s float32
			for l := 0; l < k; l++ {
				s += ai[l] * aj[l]
			}
			if betaZero {
				c[i*ldc+j] = float64(al * s)
			} else {
				c[i*ldc+j] = float64(al*s + be*float32(c[i*ldc+j]))
			}
		}
	}
}

// SyrkLNPrec dispatches the SYRK tile kernel for execution precision p
// (FP64 or FP32).
func SyrkLNPrec(p prec.Precision, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	switch p {
	case prec.FP64:
		SyrkLN(n, k, alpha, a, lda, beta, c, ldc)
	case prec.FP32:
		SyrkLN32(n, k, alpha, a, lda, beta, c, ldc)
	default:
		panic("linalg: SYRK does not support precision " + p.String())
	}
}
