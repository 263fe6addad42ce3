//go:build !amd64

package bessel

// Off amd64 every argument of an Order goes through the scalar loops.
var laneWidth = 0

func temmeLanes(w int, t *temmeBatch, n int, mu float64) {}

func cf2Lanes(w int, c *cf2Batch, n int, a1 float64) {}
