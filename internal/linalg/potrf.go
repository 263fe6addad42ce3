package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by the POTRF kernels when a pivot is
// not strictly positive, i.e. the input is not (numerically) symmetric
// positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// PotrfLower factorizes the n×n symmetric positive-definite matrix A
// (lower triangle stored, stride lda) in place as A = L·Lᵀ in float64,
// leaving L in the lower triangle. The strict upper triangle is not
// referenced.
//
// Left-looking by column block J = [j0, j0+nb): first A[j0:, J] loses its
// products with the factored columns, A[j0:, J] −= A[j0:, 0:j0]·A[J, 0:j0]ᵀ,
// through the fused-subtract micro-kernel (l ascending; the rows of the
// diagonal block store only j ≤ i), then the columns of J are factored and
// scaled in scalar over l in [j0, j). Every element keeps the subtraction
// order of the unblocked loop: bit-identical.
func PotrfLower(n int, a []float64, lda int) error {
	nb := vecWidth.nb()
	bp, bpp := f64Scratch(nb * n)
	defer putF64(bpp)
	for j0 := 0; j0 < n; j0 += nb {
		jn := min(nb, n-j0)
		i4 := j0 // rows [j0, i4) were updated through the kernel
		if j0 > 0 {
			packB64(bp, a[j0*lda:], jn, j0, lda, nb)
			for ; i4+4 <= n; i4 += 4 {
				ai := a[i4*lda:]
				if i4 >= j0+nb {
					sub64(j0, ai, lda, bp, ai[j0:], lda)
				} else {
					subPartial64(j0, ai, lda, bp, ai[j0:], lda, i4-j0+1, 1)
				}
			}
		}
		for j := j0; j < j0+jn; j++ {
			aj := a[j*lda:][:j+1]
			l0 := j0
			if j >= i4 {
				l0 = 0 // a remainder row: nothing subtracted yet
			}
			d := aj[j]
			for _, v := range aj[l0:j] {
				d -= v * v
			}
			if d <= 0 || math.IsNaN(d) {
				return fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, d)
			}
			d = math.Sqrt(d)
			aj[j] = d
			inv := 1 / d
			for i := j + 1; i < n; i++ {
				l0 := j0
				if i >= i4 {
					l0 = 0
				}
				ai := a[i*lda:][:j+1]
				ajl := aj[l0:j]
				s := ai[j]
				for l, v := range ai[l0:j] {
					s -= v * ajl[l]
				}
				ai[j] = s * inv
			}
		}
	}
	return nil
}
