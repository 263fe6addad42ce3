package linalg

import (
	"errors"
	"fmt"
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
// The rows below a column are independent chains: they run in vector
// lanes, group g holding rows [g·nb, g·nb+nb) over columns [0, g·nb+nb),
// left-looking by column block (laneBlock); the group of a block's pivots
// runs first, the groups below read L from A. Every element keeps the
// subtraction order of the unblocked loop: bit-identical.
func PotrfLower(n int, a []float64, lda int) error {
	nb := vecWidth.nb()
	groups := (n + nb - 1) / nb
	p, pp := f64Scratch(nb * nb * groups * (groups + 1) / 2)
	defer putF64(pp)
	group := func(g int) []float64 { return p[nb*nb*g*(g+1)/2:][:nb*nb*(g+1)] }
	clear(p)
	for i := 0; i < n; i++ { // row i's lower triangle into lane i mod nb
		xg := group(i / nb)
		transpose(1, i+1, a[i*lda:], lda, xg[i%nb:], nb)
	}
	for gd := 0; gd < groups; gd++ {
		xd, j0 := group(gd), gd*nb
		jn := min(j0+nb, n)
		if j := laneBlock(xd, nb, j0, jn, a, lda, xd, -j0, 1, nb, lanePivot); j < jn {
			return fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, xd[j*nb+j-j0])
		}
		for i := j0; i < jn; i++ {
			transpose(i-j0+1, 1, xd[j0*nb+i-j0:], nb, a[i*lda+j0:], 1)
		}
		for g := gd + 1; g < groups; g++ {
			xg, i0 := group(g), g*nb
			laneBlock(xg, nb, j0, jn, a, lda, a, 0, lda, 1, laneScale)
			unpackLanes(a[i0*lda+j0:], xg[j0*nb:], min(nb, n-i0), jn-j0, lda, nb)
		}
	}
	return nil
}
