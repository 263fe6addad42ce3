package linalg

import "geompc/internal/prec"

// SyrkLNPacked computes C = alpha·A·Aᵀ + beta·C on the lower triangle of C
// (stride ldc) in FP64 — the operand the tile's GEMMs share, packed with its
// B side. A factorization runs every SYRK in FP64: its target is a diagonal
// tile, and the diagonal stays in FP64 (§V). The GEMM block loop runs over the
// column blocks of a's B side at or below the diagonal; a block the
// diagonal crosses stores only j ≤ i. Each element is the scalar loop's
// l-ordered sum.
func SyrkLNPacked(alpha float64, a *Operand, beta float64, c []float64, ldc int) {
	if a.p != prec.FP64 {
		panic("linalg: SYRK does not support precision " + a.p.String())
	}
	gemmNT(a.p, a.rows, a.rows, a.k, &a.f64, &a.f64, true, alpha, beta, c, ldc)
}
