package linalg

import "geompc/internal/prec"

// SyrkLN computes C = alpha·A·Aᵀ + beta·C on the lower triangle of the n×n
// matrix C (stride ldc), with A n×k (stride lda), in float64: the diagonal
// update A[m][m] -= A[m][k]·A[m][k]ᵀ of Algorithm 1 (alpha=-1, beta=1).
func SyrkLN(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	SyrkLNPrec(prec.FP64, n, k, alpha, a, lda, beta, c, ldc)
}

// SyrkLN32 is SyrkLN in genuine float32 arithmetic over float64 storage
// (full-FP32 baseline only; the adaptive framework always runs SYRK in FP64
// because it updates diagonal tiles).
func SyrkLN32(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	SyrkLNPrec(prec.FP32, n, k, alpha, a, lda, beta, c, ldc)
}

// SyrkLNPrec runs the SYRK tile kernel of execution precision p (FP64 or
// FP32): it packs A for this one call and runs SyrkLNPacked.
func SyrkLNPrec(p prec.Precision, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	var ao Operand
	// Only the FP64 micro-kernel reads a B side, and only from four rows up.
	ao.Pack(p, n, k, a, lda, p == prec.FP64 && n >= 4)
	SyrkLNPacked(alpha, &ao, beta, c, ldc)
	ao.Release()
}

// SyrkLNPacked computes C = alpha·A·Aᵀ + beta·C on the lower triangle of C
// (stride ldc) in the precision a was packed for, FP64 or FP32 — the operand
// the tile's GEMMs share. In FP64 the GEMM micro-kernel runs over the column
// blocks of a's B side at or below the diagonal; a block the diagonal crosses
// stores only j ≤ i. Each element is the scalar loop's l-ordered sum.
func SyrkLNPacked(alpha float64, a *Operand, beta float64, c []float64, ldc int) {
	n, k := a.rows, a.k
	switch a.p {
	case prec.FP64:
		i := 0
		if len(a.bp) > 0 {
			nb := vecWidth.nb()
			for ; i+4 <= n; i += 4 {
				ai, ci := a.src[i*a.ld:], c[i*ldc:]
				j := 0
				for ; j+nb <= i+1; j += nb { // wholly at or below the diagonal of all four rows
					dot64(k, ai, a.ld, a.bp[j*k:], alpha, beta, ci[j:], ldc)
				}
				for ; j <= i+3; j += nb { // row i+r keeps columns j..i+r
					dotPartial64(k, ai, a.ld, a.bp[j*k:], alpha, beta, ci[j:], ldc, i-j+1, 1)
				}
			}
		}
		for ; i < n; i++ {
			gemmNT64Tail(i, i+1, i+1, k, alpha, a.src, a.ld, a.src, a.ld, beta, c, ldc)
		}
	case prec.FP32:
		defer leaveFlush32(enterFlush32())
		syrkLN32Panel(0, n, k, float32(alpha), beta == 0, float32(beta), a.f32, c, ldc)
	default:
		panic("linalg: SYRK does not support precision " + a.p.String())
	}
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
