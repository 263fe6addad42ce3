// Package bessel provides the modified Bessel function of the second kind
// K_ν(x) for arbitrary real order ν ≥ 0, required by the Matérn covariance
// family (§III-A). The implementation follows Temme's series for small
// arguments and Steed's continued fraction CF2 for large arguments, with
// stable upward recurrence in the order — the classical scheme used by
// numerical libraries for fractional-order K. An Order evaluates many
// arguments at one ν, the loops of both series in vector lanes.
package bessel

import (
	"math"
)

const (
	eulerGamma = 0.57721566490153286060651209008240243
	maxIter    = 20000
	epsK       = 1e-16
	xCrossover = 2.0 // series below, continued fraction above
)

// K returns K_ν(x), the modified Bessel function of the second kind of
// order ν ≥ 0, for x > 0. It returns +Inf for x == 0 (K diverges at the
// origin), 0 for x == +Inf, NaN for x < 0 or ν < 0 outside the reflection
// K_{-ν} = K_ν (negative ν is mapped through that symmetry).
func K(nu, x float64) float64 { return besselK(nu, x, false) }

// KScaled returns e^x · K_ν(x), which stays finite and accurate where K
// itself underflows (x ≳ 700). The scaled value is evaluated directly, not
// as exp(x)·K: CF2 yields it when its e^{−x} factor is left out, and below
// the crossover Temme's sum is multiplied by e^x ≤ e². Arguments outside
// x > 0, ν ≥ 0 are treated as in K.
func KScaled(nu, x float64) float64 { return besselK(nu, x, true) }

// besselK evaluates K_ν(x), or e^x·K_ν(x) when scaled is set. The unscaled
// path performs exactly the operations K always has, in the same order.
func besselK(nu, x float64, scaled bool) float64 {
	if math.IsNaN(nu) || math.IsNaN(x) {
		return math.NaN()
	}
	if nu < 0 {
		nu = -nu // K_{-ν}(x) = K_ν(x)
	}
	switch {
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(1)
	case math.IsInf(x, 1): // K_ν(x) and e^x·K_ν(x) both tend to 0
		return 0
	case nu == 0.5:
		// Half-integer orders have closed forms; handle the common Matérn
		// smoothness ν = 0.5 (exponential kernel) exactly and cheaply.
		if scaled {
			return math.Sqrt(math.Pi / (2 * x))
		}
		return math.Sqrt(math.Pi/(2*x)) * math.Exp(-x)
	}
	o := reduce(nu)
	if x > xCrossover {
		h, s := steedCF2(o.a1, x)
		return o.cf2Finish(x, h, s, scaled)
	}
	o.temmeGammas()
	ff, p, q, dd := o.temmeStart(x)
	sum, sum1 := temmeSeries(o.mu, ff, p, q, dd)
	return o.temmeFinish(x, sum, sum1, scaled)
}

// reduce returns what K_ν needs of ν ≥ 0 alone but Temme's constants:
// ν = μ + nl with |μ| ≤ 1/2, and CF2's a1 = ¼ − μ².
func reduce(nu float64) Order {
	nl := int(nu + 0.5)
	mu := nu - float64(nl)
	return Order{mu: mu, a1: 0.25 - mu*mu, nl: nl}
}

// temmeGammas sets πμ/sin πμ, Temme's Γ1, Γ2 and the reciprocal gammas
// 1/Γ(1+μ), 1/Γ(1-μ).
func (o *Order) temmeGammas() {
	pimu := math.Pi * o.mu
	o.fact = 1.0
	if math.Abs(pimu) > 1e-15 {
		o.fact = pimu / math.Sin(pimu)
	}
	o.gampl = 1 / math.Gamma(1+o.mu)
	o.gammi = 1 / math.Gamma(1-o.mu)
	if math.Abs(o.mu) < 1e-8 {
		// gam1 = (1/Γ(1-μ) - 1/Γ(1+μ))/(2μ) → -γ as μ→0.
		o.gam1 = -eulerGamma
	} else {
		o.gam1 = (o.gammi - o.gampl) / (2 * o.mu)
	}
	o.gam2 = 0.5 * (o.gammi + o.gampl)
}

// temmeStart is the first term of Temme's power series for K_μ(x) and
// K_{μ+1}(x), 0 < x ≤ 2 (Temme 1975; cf. Numerical Recipes §6.7), and
// (x/2)².
func (o *Order) temmeStart(x float64) (ff, p, q, dd float64) {
	x1 := 0.5 * x
	d := -math.Log(x1)
	e := o.mu * d
	fact2 := 1.0
	if math.Abs(e) > 1e-15 {
		fact2 = math.Sinh(e) / e
	}
	ff = o.fact * (o.gam1*math.Cosh(e) + o.gam2*fact2*d)
	ee := math.Exp(e)
	p = 0.5 * ee / o.gampl
	q = 0.5 / (ee * o.gammi)
	return ff, p, q, x1 * x1
}

// temmeSeries sums the series from its first term; temmeLanes repeats it
// operation for operation.
func temmeSeries(mu, ff, p, q, dd float64) (sum, sum1 float64) {
	c := 1.0
	sum, sum1 = ff, p
	for i := 1; i <= maxIter; i++ {
		fi := float64(i)
		ff = (fi*ff + p + q) / (fi*fi - mu*mu)
		c *= dd / fi
		p /= fi - mu
		q /= fi + mu
		del := c * ff
		sum += del
		sum1 += c * (p - fi*ff)
		if math.Abs(del) < math.Abs(sum)*epsK {
			break
		}
	}
	// The series converges in a handful of terms for x ≤ 2; running out of
	// iterations indicates pathological input, so return the best estimate.
	return sum, sum1
}

func (o *Order) temmeFinish(x, sum, sum1 float64, scaled bool) float64 {
	kmu, knu1 := sum, sum1*(2/x)
	if scaled {
		ex := math.Exp(x)
		kmu, knu1 = kmu*ex, knu1*ex
	}
	return o.up(kmu, knu1, x)
}

// steedCF2 runs Steed's continued fraction CF2 (Thompson–Barnett; cf.
// Numerical Recipes) for K_μ and K_{μ+1} at x > 2 and returns its h and s;
// cf2Lanes repeats it operation for operation.
func steedCF2(a1, x float64) (h, s float64) {
	b := 2 * (1 + x)
	d := 1 / b
	h = d
	delh := d
	q1, q2 := 0.0, 1.0
	q := a1
	c := a1
	a := -a1
	s = 1 + q*delh
	for i := 2; i <= maxIter; i++ {
		a -= 2 * float64(i-1)
		c = -a * c / float64(i)
		qnew := (q1 - b*q2) / a
		q1, q2 = q2, qnew
		q += c * qnew
		b += 2
		d = 1 / (b + a*d)
		delh = (b*d - 1) * delh
		h += delh
		dels := q * delh
		s += dels
		if math.Abs(dels/s) < epsK {
			break
		}
	}
	return h, s
}

// cf2Finish turns CF2's h and s into K_ν(x). The fraction itself yields
// e^x·K; scaled asks for that, otherwise the e^{−x} factor is applied.
func (o *Order) cf2Finish(x, h, s float64, scaled bool) float64 {
	h = o.a1 * h
	kmu := math.Sqrt(math.Pi / (2 * x))
	if !scaled {
		kmu *= math.Exp(-x)
	}
	kmu /= s
	kmu1 := kmu * (o.mu + x + 0.5 - h) / x
	return o.up(kmu, kmu1, x)
}

// up takes K_μ(x), K_{μ+1}(x) to K_ν(x) by the upward recurrence
// K_{ν+1} = K_{ν-1} + (2ν/x)·K_ν, forward-stable for K.
func (o *Order) up(kmu, knu1, x float64) float64 {
	for i := 1; i <= o.nl; i++ {
		kmu, knu1 = knu1, (o.mu+float64(i))*(2/x)*knu1+kmu
	}
	return kmu
}
