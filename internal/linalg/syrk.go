package linalg

import "geompc/internal/prec"

// SyrkLN computes C = alpha·A·Aᵀ + beta·C on the lower triangle of the n×n
// matrix C (stride ldc), with A n×k (stride lda), in float64. This is the
// diagonal-tile update A[m][m] -= A[m][k]·A[m][k]ᵀ of Algorithm 1 (alpha=-1,
// beta=1). Rows of the triangle are independent, so the kernel blocks four
// output rows at a time over the shared aj operand (each accumulator still
// sums in l-order: bit-identical to the scalar loop).
func SyrkLN(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	i := 0
	for ; i+4 <= n; i += 4 {
		ai0 := a[(i+0)*lda:][:k]
		ai1 := a[(i+1)*lda:][:k]
		ai2 := a[(i+2)*lda:][:k]
		ai3 := a[(i+3)*lda:][:k]
		// Columns j <= i are valid for all four rows; the ragged triangle
		// edge j in (i, i+3] is finished per row below.
		for j := 0; j <= i; j++ {
			aj := a[j*lda:][:k]
			var s0, s1, s2, s3 float64
			for l := 0; l < k; l++ {
				al := aj[l]
				s0 += ai0[l] * al
				s1 += ai1[l] * al
				s2 += ai2[l] * al
				s3 += ai3[l] * al
			}
			if beta == 0 {
				c[(i+0)*ldc+j] = alpha * s0
				c[(i+1)*ldc+j] = alpha * s1
				c[(i+2)*ldc+j] = alpha * s2
				c[(i+3)*ldc+j] = alpha * s3
			} else {
				c[(i+0)*ldc+j] = alpha*s0 + beta*c[(i+0)*ldc+j]
				c[(i+1)*ldc+j] = alpha*s1 + beta*c[(i+1)*ldc+j]
				c[(i+2)*ldc+j] = alpha*s2 + beta*c[(i+2)*ldc+j]
				c[(i+3)*ldc+j] = alpha*s3 + beta*c[(i+3)*ldc+j]
			}
		}
		for r := 1; r < 4; r++ {
			ar := a[(i+r)*lda:][:k]
			cr := c[(i+r)*ldc : (i+r)*ldc+i+r+1]
			for j := i + 1; j <= i+r; j++ {
				aj := a[j*lda:][:k]
				var s float64
				for l := 0; l < k; l++ {
					s += ar[l] * aj[l]
				}
				if beta == 0 {
					cr[j] = alpha * s
				} else {
					cr[j] = alpha*s + beta*cr[j]
				}
			}
		}
	}
	for ; i < n; i++ {
		ai := a[i*lda:][:k]
		ci := c[i*ldc : i*ldc+i+1]
		for j := 0; j <= i; j++ {
			aj := a[j*lda:][:k]
			var s float64
			for l := 0; l < k; l++ {
				s += ai[l] * aj[l]
			}
			if beta == 0 {
				ci[j] = alpha * s
			} else {
				ci[j] = alpha*s + beta*ci[j]
			}
		}
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
