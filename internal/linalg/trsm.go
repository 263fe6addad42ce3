package linalg

import "geompc/internal/prec"

// TrsmRLT solves X·Aᵀ = B for X in place of B, in float64, where A is an
// n×n lower-triangular matrix (stride lda; strict upper triangle not
// referenced) and B is m×n (stride ldb). This is the BLAS dtrsm with side
// Right, uplo Lower, transA Trans, diag NonUnit, alpha 1 — the tile update
// A[m][k] = A[m][k]·A[k][k]^{-T} of Algorithm 1.
//
// Element (i,j) is b[i][j] minus its products b[i][l]·a[j][l] in increasing
// l, divided by the pivot. Whole groups of four rows take the products
// through the fused-subtract micro-kernel: column block J = [j0, j0+nb)
// first loses those with the solved columns l < j0 (the strictly lower
// block rows of A are packed once), then, four columns at a time, the short
// rest of each recurrence runs in scalar and the block's later columns lose
// the products with the four just solved. Every element is subtracted from
// in the order of the scalar loop: bit-identical.
func TrsmRLT(m, n int, a []float64, lda int, b []float64, ldb int) {
	const leaf = 4 // columns finished in scalar at a time; divides every nb
	nb := vecWidth.nb()
	m4 := m &^ 3 // rows updated through the kernel
	if m4 > 0 {
		blocks := (n + nb - 1) / nb
		ap, app := f64Scratch(nb * nb * blocks * (blocks - 1) / 2) // Σ nb·j0 over j0 = nb, 2nb, …
		for j0, off := nb, 0; j0 < n; j0, off = j0+nb, off+nb*j0 {
			packB64(ap[off:], a[j0*lda:], min(nb, n-j0), j0, lda, nb)
		}
		for j0, off := 0, 0; j0 < n; j0, off = j0+nb, off+nb*j0 {
			j1 := min(j0+nb, n)
			for i := 0; i < m4 && j0 > 0; i += 4 {
				bi := b[i*ldb:]
				if j1-j0 == nb {
					sub64(j0, bi, ldb, ap[off:], bi[j0:], ldb)
				} else {
					subPartial64(j0, bi, ldb, ap[off:], bi[j0:], ldb, j1-j0, 0)
				}
			}
			for q0 := j0; q0 < j1; q0 += leaf {
				q1 := min(q0+leaf, j1)
				trsmCols(0, m4, q0, q0, q1, a, lda, b, ldb)
				if q1 == j1 {
					break
				}
				var tp [leaf * maxNB]float64
				packB64(tp[:], a[q1*lda+q0:], j1-q1, leaf, lda, nb)
				for i := 0; i < m4; i += 4 {
					bi := b[i*ldb:]
					subPartial64(leaf, bi[q0:], ldb, tp[:], bi[q1:], ldb, j1-q1, 0)
				}
			}
		}
		putF64(app)
	}
	trsmCols(m4, m, 0, 0, n, a, lda, b, ldb)
}

// trsmCols finishes columns [j0, j1) of rows [i0, i1) of a TrsmRLT whose
// products with the columns l < l0 are already subtracted: the rest of each
// recurrence and the division. Rows are innermost because they are
// independent chains.
func trsmCols(i0, i1, l0, j0, j1 int, a []float64, lda int, b []float64, ldb int) {
	for j := j0; j < j1; j++ {
		aj, d := a[j*lda:][l0:j], a[j*lda+j]
		for i := i0; i < i1; i++ {
			bi := b[i*ldb:][l0 : j+1]
			s := bi[len(aj)]
			for l, v := range aj {
				s -= bi[l] * v
			}
			bi[len(aj)] = s / d
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
