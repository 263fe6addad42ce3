package linalg

import "geompc/internal/prec"

// TrsmRLT solves X·Aᵀ = B for X in place of B, in float64, where A is an
// n×n lower-triangular matrix (stride lda; strict upper triangle not
// referenced) and B is m×n (stride ldb). This is the BLAS dtrsm with side
// Right, uplo Lower, transA Trans, diag NonUnit, alpha 1 — the tile update
// A[m][k] = A[m][k]·A[k][k]^{-T} of Algorithm 1.
//
// The rows of B are independent chains: they run in vector lanes, nb at a
// time, by column block (laneBlock). Every element subtracts its products
// b[i][l]·a[j][l] in increasing l: bit-identical to the scalar loop.
func TrsmRLT(m, n int, a []float64, lda int, b []float64, ldb int) {
	nb := vecWidth.nb()
	x, xp := f64Scratch((m + nb - 1) / nb * nb * n)
	packLanes(x, b, m, n, ldb, nb)
	for g := 0; g < m; g += nb {
		for j0 := 0; j0 < n; j0 += nb {
			laneBlock(x[g*n:][:nb*n], nb, j0, min(j0+nb, n), a, lda, a, 0, lda, 1, laneDiv)
		}
	}
	unpackLanes(b, x, m, n, ldb, nb)
	putF64(xp)
}

// laneBlock finishes columns [j0, jn) of the lane group x (nb lanes) whose
// columns l < j0 are final (DESIGN.md §3.3): their products go through
// sub64, rows j..j+3 of a as the A side, and the rest of each recurrence
// through the lane kernel, with a(j, l) = c[off + j·rs + l·cs]; the last
// n mod 4 columns run whole in lanes. It returns jn or the failed pivot.
func laneBlock(x []float64, nb, j0, jn int, a []float64, lda int, c []float64, off, rs, cs, mode int) int {
	j1 := jn &^ 3
	for j := j0; j < j1 && j0 > 0; j += 4 {
		sub64(j0, a[j*lda:], lda, x, x[j*nb:], nb)
	}
	if k := lanes64(x, c[off+j0*rs+j0*cs:], j0, j0, j1, rs, cs, mode); k < j1-j0 {
		return j0 + k
	}
	if j1 < jn {
		return j1 + lanes64(x, c[off+j1*rs:], 0, j1, jn, rs, cs, mode)
	}
	return jn
}

// TrsmRLT32 is TrsmRLT computed in genuine float32 arithmetic over float64
// storage. §V: tiles selected for FP16_32/FP16 GEMMs still run their TRSM in
// FP32, because the considered GPUs only provide half-precision GEMM. Its
// rows run whole in binary32 lanes, twice as many as TrsmRLT's.
func TrsmRLT32(m, n int, a []float64, lda int, b []float64, ldb int) {
	defer leaveFlush32(enterFlush32())
	nl := 2 * vecWidth.nb()
	af, afp := f32Scratch(n * n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			af[i*n+j] = float32(a[i*lda+j])
		}
	}
	mn := (m + nl - 1) / nl * nl * n
	x64, x64p := f64Scratch(mn)
	x, xp := f32Scratch(mn)
	packLanes(x64, b, m, n, ldb, nl)
	for i, v := range x64 {
		x[i] = float32(v)
	}
	for g := 0; g < m; g += nl {
		lanes32(x[g*n:][:nl*n], af, 0, 0, n, n, 1, laneDiv)
	}
	for i, v := range x {
		x64[i] = float64(v)
	}
	unpackLanes(b, x64, m, n, ldb, nl)
	putF64(x64p)
	putF32(afp)
	putF32(xp)
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
