package bessel

import "geompc/internal/hostcpu"

// laneWidth is the number of arguments per vector of temmeLanes and
// cf2Lanes (lanes_amd64.s): 8 with AVX-512F, 4 with AVX2, 0 (no lanes)
// without AVX2 and FMA. The lanes only add, subtract, multiply, divide and
// compare, so the width changes speed, never a bit; it is not a setting.
var laneWidth = hostLanes()

func hostLanes() int {
	if hostcpu.Lanes < 4 || !hostcpu.FMA {
		return 0
	}
	return hostcpu.Lanes
}

// temmeLanes sets t.sum[k], t.sum1[k] = temmeSeries(mu, t.ff[k], t.p[k],
// t.q[k], t.dd[k]) for k < n, at width w (4 or 8; n a multiple of w).
//
//go:noescape
func temmeLanes(w int, t *temmeBatch, n int, mu float64)

// cf2Lanes sets c.h[k], c.s[k] = steedCF2(a1, c.x[k]) for k < n, at width
// w (4 or 8; n a multiple of w).
//
//go:noescape
func cf2Lanes(w int, c *cf2Batch, n int, a1 float64)
