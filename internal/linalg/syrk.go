package linalg

import "geompc/internal/prec"

// SyrkLNPacked computes C = alpha·A·Aᵀ + beta·C on the lower triangle of C
// (stride ldc) in FP64 — the operand the tile's GEMMs share, packed with its
// B side. A factorization runs every SYRK in FP64: its target is a diagonal
// tile, and the diagonal stays in FP64 (§V). The GEMM micro-kernel runs over
// the column blocks of a's B side at or below the diagonal; a block the
// diagonal crosses stores only j ≤ i. Each element is the scalar loop's
// l-ordered sum.
func SyrkLNPacked(alpha float64, a *Operand, beta float64, c []float64, ldc int) {
	if a.p != prec.FP64 {
		panic("linalg: SYRK does not support precision " + a.p.String())
	}
	n, k := a.rows, a.k
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
}
