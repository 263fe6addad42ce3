package bessel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// TestBesselLanesMatchScalar: at every width, an Order's K and KScaled give
// every argument the bits of the scalar K and KScaled — at orders on both
// sides of each branch (ν = 0, the |μ| < 1e-8 Gamma limit at 1e-9, ν = ½
// and one ulp either side, half-integers, ν above the table's 8, a
// reflected negative ν, NaN and infinite ν), on arguments log-spaced over
// [1e-300, 750], at the crossover 2 and one ulp either side, at the ends
// 1e-300 and 1e300 of the lanes' range, and at 0, −1, NaN, ±Inf, 5e-324 and
// 1e308 outside it. The arguments
// are shuffled, so that one vector holds Temme and CF2 lanes and lanes that
// converge after different numbers of iterations, in rows of several
// lengths, in place and into a separate slice.
func TestBesselLanesMatchScalar(t *testing.T) {
	forEachLaneWidth(t, func(t *testing.T) {
		nus := []float64{0, math.Copysign(0, -1), 1e-9, 0.3, math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), 1, 2.5, 8, 9.5, -1.3,
			math.NaN(), math.Inf(1)}
		xs := []float64{math.Nextafter(2, 0), 2, math.Nextafter(2, 3), 0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e-300, 1e300, 1e308}
		const steps = 400
		for i := 0; i <= steps; i++ {
			xs = append(xs, 1e-300*math.Pow(750/1e-300, float64(i)/steps))
		}
		// Arguments near the crossover, where Temme's and CF2's iteration
		// counts are largest, beside ones far from it.
		rng := rand.New(rand.NewPCG(3, 4))
		for i := 0; i < 200; i++ {
			xs = append(xs, 0.5+3*rng.Float64())
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		for _, nu := range nus {
			o := NewOrder(nu)
			lengths := []int{1, 7, 64, 65, len(xs)}
			if math.IsNaN(nu) || math.IsInf(nu, 0) {
				lengths = lengths[:2] // every series runs to maxIter: the scalar path, slowly
			}
			for _, n := range lengths {
				for _, scaled := range []bool{false, true} {
					name, eval, scalar := "K", o.K, K
					if scaled {
						name, eval, scalar = "KScaled", o.KScaled, KScaled
					}
					got := make([]float64, n)
					eval(got, xs[:n])
					inPlace := append([]float64(nil), xs[:n]...)
					eval(inPlace, inPlace)
					for i, x := range xs[:n] {
						want := math.Float64bits(scalar(nu, x))
						if math.Float64bits(got[i]) != want || math.Float64bits(inPlace[i]) != want {
							t.Fatalf("%s ν=%g x=%.17g (row of %d): Order %#x, in place %#x, scalar %#x",
								name, nu, x, n, math.Float64bits(got[i]), math.Float64bits(inPlace[i]), want)
						}
					}
				}
			}
		}
	})
}

// TestKAtInfinity: K and KScaled are 0 at x = +Inf at every order, and
// return at once rather than run CF2 to its iteration limit.
func TestKAtInfinity(t *testing.T) {
	for _, nu := range []float64{0, 0.3, 0.5, 1, 2.5, 9.5, -2} {
		if k, ks := K(nu, math.Inf(1)), KScaled(nu, math.Inf(1)); k != 0 || ks != 0 {
			t.Errorf("ν=%g: K(+Inf) = %g, KScaled(+Inf) = %g, want 0", nu, k, ks)
		}
	}
	// Running CF2 to its iteration limit took about 200 µs a call.
	start := time.Now()
	for i := 0; i < 1000; i++ {
		K(1.3, math.Inf(1))
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("1000 calls of K(1.3, +Inf) took %v: it runs the continued fraction", d)
	}
}

func BenchmarkOrderK(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 0.3 * math.Pow(100, rng.Float64())
	}
	dst := make([]float64, len(xs))
	for _, nu := range []float64{1, 2.7} {
		b.Run(fmt.Sprint("nu=", nu), func(b *testing.B) {
			o := NewOrder(nu)
			for i := 0; i < b.N; i++ {
				o.K(dst, xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/x")
		})
	}
}
