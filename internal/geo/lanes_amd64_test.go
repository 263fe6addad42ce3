package geo

import (
	"math"
	"testing"

	"geompc/internal/hostcpu"
)

// expAMD64 replays math.Exp's amd64 sequence (math/exp_amd64.s) in Go for
// arguments in [−708, 0]: its FMA path when fma is set, the SSE2 one
// otherwise. CVTSD2SL rounds to nearest, ties to even.
func expAMD64(x float64, fma bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	madd := func(a, b, c float64) float64 {
		if fma {
			return math.FMA(a, b, c)
		}
		return float64(a*b) + c
	}
	k := math.RoundToEven(x * log2e)
	x = madd(-k, ln2U, x)
	x = madd(-k, ln2L, x)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = madd(x, p, c)
	}
	x *= p
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	x = madd(x+2, x, 1)
	return x * math.Float64frombits(uint64(k+1023)<<52)
}

// TestExpProbe: the probe's exp arguments r = h·h span [2⁻⁴⁰, 708], the
// lanes' range but for r below 2⁻⁴⁰, and hold arguments where
// math.Exp's FMA and SSE2 sequences differ, so the init probe can tell
// which one math.Exp runs; and where math.Exp runs the FMA one on a host
// with AVX2 and FMA, the lanes' exp passes the probe at every vector width
// the host has and the lanes are on.
func TestExpProbe(t *testing.T) {
	first, last := expProbeArgs[0], expProbeArgs[len(expProbeArgs)-1]
	if first*first != 0x1p-40 || last*last != 708 {
		t.Fatalf("probe arguments r run from %g to %g, not from 2⁻⁴⁰ to 708", first*first, last*last)
	}
	differ := 0
	for _, h := range expProbeArgs {
		r := h * h
		fma, sse := expAMD64(-r, true), expAMD64(-r, false)
		if got := math.Exp(-r); got != fma && got != sse {
			t.Fatalf("math.Exp(−%g) = %#x is neither replayed sequence (%#x FMA, %#x SSE2)", r,
				math.Float64bits(got), math.Float64bits(fma), math.Float64bits(sse))
		}
		if fma != sse {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no probe argument separates math.Exp's FMA and SSE2 sequences")
	}
	t.Logf("%d of %d probe arguments separate the two sequences", differ, len(expProbeArgs))
	usesFMA := true
	for _, h := range expProbeArgs {
		usesFMA = usesFMA && math.Exp(-h*h) == expAMD64(-h*h, true)
	}
	if !usesFMA || hostcpu.Lanes < 4 || !hostcpu.FMA {
		t.Skip("math.Exp does not run its FMA sequence here: no lanes")
	}
	for _, w := range []int{4, 8} {
		if w > hostcpu.Lanes {
			continue
		}
		if !lanesMatchExp(w) {
			t.Errorf("width %d: the lanes' exp is not math.Exp's FMA sequence on the probe set", w)
		}
	}
	if hostLaneWidth == 0 {
		t.Error("math.Exp runs its FMA sequence on an AVX2+FMA host, yet the probe turned the lanes off")
	}
}
