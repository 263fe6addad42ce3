package linalg

import "geompc/internal/prec"

// TrsmRLT solves X·Aᵀ = B for X in place of B, in float64, where A is an
// n×n lower-triangular matrix (stride lda; strict upper triangle not
// referenced) and B is m×n (stride ldb). This is the BLAS dtrsm with side
// Right, uplo Lower, transA Trans, diag NonUnit, alpha 1 — the tile update
// A[m][k] = A[m][k]·A[k][k]^{-T} of Algorithm 1.
// Rows of B are solved independently, so the kernel blocks four rows over
// the shared triangular operand (each row's recurrence runs in the same
// order as the scalar loop: bit-identical).
func TrsmRLT(m, n int, a []float64, lda int, b []float64, ldb int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		b0 := b[(i+0)*ldb:][:n]
		b1 := b[(i+1)*ldb:][:n]
		b2 := b[(i+2)*ldb:][:n]
		b3 := b[(i+3)*ldb:][:n]
		for j := 0; j < n; j++ {
			aj := a[j*lda:][:j]
			s0, s1, s2, s3 := b0[j], b1[j], b2[j], b3[j]
			for l := range aj {
				alv := aj[l]
				s0 -= b0[l] * alv
				s1 -= b1[l] * alv
				s2 -= b2[l] * alv
				s3 -= b3[l] * alv
			}
			d := a[j*lda+j]
			b0[j] = s0 / d
			b1[j] = s1 / d
			b2[j] = s2 / d
			b3[j] = s3 / d
		}
	}
	for ; i < m; i++ {
		bi := b[i*ldb:][:n]
		for j := 0; j < n; j++ {
			s := bi[j]
			aj := a[j*lda:][:j]
			for l := range aj {
				s -= bi[l] * aj[l]
			}
			bi[j] = s / a[j*lda+j]
		}
	}
}

// TrsmRLT32 is TrsmRLT computed in genuine float32 arithmetic over float64
// storage. §V: tiles selected for FP16_32/FP16 GEMMs still run their TRSM in
// FP32, because the considered GPUs only provide half-precision GEMM.
func TrsmRLT32(m, n int, a []float64, lda int, b []float64, ldb int) {
	defer leaveFlush32(enterFlush32())
	af, afp := f32Scratch(n * n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			af[i*n+j] = float32(a[i*lda+j])
		}
	}
	// The whole of B is packed once (the seed packed one row at a time,
	// re-reading the float64 row per output row); rows then solve
	// independently with 4-row blocking over the shared triangle.
	bf, bfp := f32Scratch(m * n)
	pack32(bf, b, m, n, ldb)
	trsmRLT32Panel(0, m, n, af, bf)
	for i := 0; i < m; i++ {
		bi := b[i*ldb:][:n]
		for j, v := range bf[i*n:][:n] {
			bi[j] = float64(v)
		}
	}
	putF32(afp)
	putF32(bfp)
}

func trsmRLT32Panel(i0, i1, n int, af, bf []float32) {
	i := i0
	for ; i+4 <= i1; i += 4 {
		b0 := bf[(i+0)*n:][:n]
		b1 := bf[(i+1)*n:][:n]
		b2 := bf[(i+2)*n:][:n]
		b3 := bf[(i+3)*n:][:n]
		for j := 0; j < n; j++ {
			aj := af[j*n:][:j]
			s0, s1, s2, s3 := b0[j], b1[j], b2[j], b3[j]
			for l := range aj {
				alv := aj[l]
				s0 -= b0[l] * alv
				s1 -= b1[l] * alv
				s2 -= b2[l] * alv
				s3 -= b3[l] * alv
			}
			d := af[j*n+j]
			b0[j] = s0 / d
			b1[j] = s1 / d
			b2[j] = s2 / d
			b3[j] = s3 / d
		}
	}
	for ; i < i1; i++ {
		bi := bf[i*n:][:n]
		for j := 0; j < n; j++ {
			s := bi[j]
			for l := 0; l < j; l++ {
				s -= bi[l] * af[j*n+l]
			}
			bi[j] = s / af[j*n+j]
		}
	}
}

// TrsmRLTPrec dispatches the TRSM tile kernel for execution precision p.
// Only FP64 and FP32 are legal (hardware constraint modeled from §V); lower
// formats must have been mapped to FP32 by the precision map.
func TrsmRLTPrec(p prec.Precision, m, n int, a []float64, lda int, b []float64, ldb int) {
	switch p {
	case prec.FP64:
		TrsmRLT(m, n, a, lda, b, ldb)
	case prec.FP32:
		TrsmRLT32(m, n, a, lda, b, ldb)
	default:
		panic("linalg: TRSM does not support precision " + p.String())
	}
}

// TrsvLNN solves L·x = b in place of b, where L is n×n lower triangular
// (stride lda). Used by the log-likelihood term Zᵀ·Σ⁻¹·Z after the Cholesky
// factorization.
func TrsvLNN(n int, a []float64, lda int, b []float64) {
	for i := 0; i < n; i++ {
		s := b[i]
		ai := a[i*lda:][:i]
		for l := range ai {
			s -= ai[l] * b[l]
		}
		b[i] = s / a[i*lda+i]
	}
}

// TrsvLTN solves Lᵀ·x = b in place of b, where L is n×n lower triangular.
// Completes the two-solve path Σ⁻¹Z = L⁻ᵀ(L⁻¹Z) used for prediction.
func TrsvLTN(n int, a []float64, lda int, b []float64) {
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for l := i + 1; l < n; l++ {
			s -= a[l*lda+i] * b[l]
		}
		b[i] = s / a[i*lda+i]
	}
}
