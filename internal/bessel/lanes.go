package bessel

import "math"

// batch is how many arguments an Order takes through the lanes at a time.
const batch = 64

// temmeBatch is one batch of Temme lanes: temmeStart's first terms in,
// temmeSeries' sums out. cf2Batch is one of CF2 lanes: x in, h and s out.
type temmeBatch struct{ ff, p, q, dd, sum, sum1 [batch]float64 }
type cf2Batch struct{ x, h, s [batch]float64 }

// Order is K_ν at one order ν, for many arguments at once: K and KScaled
// give dst[i] the bits of K(ν, x[i]) and KScaled(ν, x[i]), and dst may be
// x. The constants that depend on ν alone are computed once. Where the host
// has AVX2 and FMA (laneWidth), the loops of Temme's series and of CF2 run
// in vector lanes, one argument per lane, each lane performing the scalar
// loop's operations in its order until its own convergence test passes;
// the start and finish of each argument (Log, Sinh, Cosh, Exp, Sqrt, the
// recurrence in ν) are the scalar routines'. Arguments outside [1e-300,
// 1e300] (NaN and ±Inf among them, and the extremes, whose series do not
// start finite and would hold a vector for every iteration), ν = ½ and a
// ν that is NaN or infinite go through the scalar K and KScaled. An Order
// is safe for concurrent use.
type Order struct {
	mu, a1                         float64 // of |ν| = μ + nl, |μ| ≤ ½; a1 = ¼ − μ²
	nl                             int
	fact, gam1, gam2, gampl, gammi float64 // Temme's constants (temmeGammas)
	nu                             float64 // as given
	lanes                          bool
}

// NewOrder returns K_ν at ν.
func NewOrder(nu float64) *Order {
	o := reduce(math.Abs(nu))
	o.temmeGammas()
	o.nu = nu
	// |μ| ≤ ½ also excludes a ν that is NaN or infinite.
	o.lanes = laneWidth > 0 && math.Abs(o.mu) <= 0.5 && math.Abs(nu) != 0.5
	return &o
}

// K sets dst[i] = K(ν, x[i]) for every i.
func (o *Order) K(dst, x []float64) { o.eval(dst, x, false) }

// KScaled sets dst[i] = KScaled(ν, x[i]) for every i.
func (o *Order) KScaled(dst, x []float64) { o.eval(dst, x, true) }

func (o *Order) eval(dst, x []float64, scaled bool) {
	for len(x) > 0 {
		n := min(len(x), batch)
		o.batch(dst[:n], x[:n], scaled)
		dst, x = dst[n:], x[n:]
	}
}

// batch evaluates at most batch arguments. Each series' lanes are padded
// to whole vectors by repeating its last argument.
func (o *Order) batch(dst, x []float64, scaled bool) {
	var t temmeBatch
	var c cf2Batch
	var ti, ci [batch]int
	nt, nc := 0, 0
	for i, xi := range x {
		switch {
		case !o.lanes || !(xi >= 1e-300 && xi <= 1e300):
			dst[i] = besselK(o.nu, xi, scaled)
		case xi <= xCrossover:
			ti[nt], nt = i, nt+1
		default:
			ci[nc], nc = i, nc+1
		}
	}
	if nt > 0 {
		for k, i := range ti[:pad(ti[:], nt)] {
			t.ff[k], t.p[k], t.q[k], t.dd[k] = o.temmeStart(x[i])
		}
		temmeLanes(laneWidth, &t, pad(ti[:], nt), o.mu)
		for k, i := range ti[:nt] {
			dst[i] = o.temmeFinish(x[i], t.sum[k], t.sum1[k], scaled)
		}
	}
	if nc > 0 {
		for k, i := range ci[:pad(ci[:], nc)] {
			c.x[k] = x[i]
		}
		cf2Lanes(laneWidth, &c, pad(ci[:], nc), o.a1)
		for k, i := range ci[:nc] {
			dst[i] = o.cf2Finish(x[i], c.h[k], c.s[k], scaled)
		}
	}
}

// pad repeats idx[n−1] up to a whole number of vectors and returns it.
func pad(idx []int, n int) int {
	for ; n%laneWidth != 0; n++ {
		idx[n] = idx[n-1]
	}
	return n
}
