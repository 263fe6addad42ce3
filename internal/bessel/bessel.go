// Package bessel provides the modified Bessel function of the second kind
// K_ν(x) for arbitrary real order ν ≥ 0, required by the Matérn covariance
// family (§III-A). The implementation follows Temme's series for small
// arguments and Steed's continued fraction CF2 for large arguments, with
// stable upward recurrence in the order — the classical scheme used by
// numerical libraries for fractional-order K.
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
// origin), NaN for x < 0 or ν < 0 outside the reflection K_{-ν} = K_ν
// (negative ν is mapped through that symmetry).
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
	if x < 0 {
		return math.NaN()
	}
	if x == 0 {
		return math.Inf(1)
	}
	// Half-integer orders have closed forms; handle the common Matérn
	// smoothness ν = 0.5 (exponential kernel) exactly and cheaply.
	if nu == 0.5 {
		if scaled {
			return math.Sqrt(math.Pi / (2 * x))
		}
		return math.Sqrt(math.Pi/(2*x)) * math.Exp(-x)
	}

	// Reduce order: ν = μ + nl with |μ| ≤ 1/2.
	nl := int(nu + 0.5)
	mu := nu - float64(nl)

	var kmu, knu1 float64 // K_μ(x), K_{μ+1}(x)
	if x <= xCrossover {
		kmu, knu1 = temmeSeries(mu, x)
		if scaled {
			ex := math.Exp(x)
			kmu, knu1 = kmu*ex, knu1*ex
		}
	} else {
		kmu, knu1 = steedCF2(mu, x, scaled)
	}

	// Upward recurrence K_{ν+1} = K_{ν-1} + (2ν/x)·K_ν, forward-stable for K.
	for i := 1; i <= nl; i++ {
		kmu, knu1 = knu1, (mu+float64(i))*(2/x)*knu1+kmu
	}
	return kmu
}

// temmeSeries evaluates K_μ(x) and K_{μ+1}(x) for |μ| ≤ 1/2 and 0 < x ≤ 2
// using Temme's power series (Temme 1975; cf. Numerical Recipes §6.7).
func temmeSeries(mu, x float64) (kmu, kmu1 float64) {
	x1 := 0.5 * x
	pimu := math.Pi * mu
	fact := 1.0
	if math.Abs(pimu) > 1e-15 {
		fact = pimu / math.Sin(pimu)
	}
	d := -math.Log(x1)
	e := mu * d
	fact2 := 1.0
	if math.Abs(e) > 1e-15 {
		fact2 = math.Sinh(e) / e
	}
	gam1, gam2, gampl, gammi := temmeGammas(mu)

	ff := fact * (gam1*math.Cosh(e) + gam2*fact2*d)
	sum := ff
	ee := math.Exp(e)
	p := 0.5 * ee / gampl
	q := 0.5 / (ee * gammi)
	c := 1.0
	dd := x1 * x1
	sum1 := p
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
			return sum, sum1 * (2 / x)
		}
	}
	// The series converges in a handful of terms for x ≤ 2; reaching here
	// indicates pathological input, so return the best estimate.
	return sum, sum1 * (2 / x)
}

// temmeGammas returns Temme's Γ1, Γ2 and the reciprocal gammas
// 1/Γ(1+μ), 1/Γ(1-μ) for |μ| ≤ 1/2.
func temmeGammas(mu float64) (gam1, gam2, gampl, gammi float64) {
	gampl = 1 / math.Gamma(1+mu)
	gammi = 1 / math.Gamma(1-mu)
	if math.Abs(mu) < 1e-8 {
		// gam1 = (1/Γ(1-μ) - 1/Γ(1+μ))/(2μ) → -γ as μ→0.
		gam1 = -eulerGamma
	} else {
		gam1 = (gammi - gampl) / (2 * mu)
	}
	gam2 = 0.5 * (gammi + gampl)
	return gam1, gam2, gampl, gammi
}

// steedCF2 evaluates K_μ(x) and K_{μ+1}(x) for |μ| ≤ 1/2 and x > 2 via
// Steed's continued fraction CF2 (Thompson–Barnett; cf. Numerical Recipes).
// The fraction itself yields e^x·K; scaled asks for that, otherwise the
// e^{−x} factor is applied.
func steedCF2(mu, x float64, scaled bool) (kmu, kmu1 float64) {
	b := 2 * (1 + x)
	d := 1 / b
	h := d
	delh := d
	q1, q2 := 0.0, 1.0
	a1 := 0.25 - mu*mu
	q := a1
	c := a1
	a := -a1
	s := 1 + q*delh
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
	h = a1 * h
	kmu = math.Sqrt(math.Pi / (2 * x))
	if !scaled {
		kmu *= math.Exp(-x)
	}
	kmu /= s
	kmu1 = kmu * (mu + x + 0.5 - h) / x
	return kmu, kmu1
}
