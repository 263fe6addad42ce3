// Package stats provides the deterministic random-number generation and
// summary statistics used by the Monte-Carlo evaluation harness (§VII-B):
// seeded PCG streams, standard-normal sampling, and five-number/box-plot
// summaries of parameter-estimate distributions.
package stats

import (
	"math"
	"math/rand/v2"
	"sort"
)

// RNG is a deterministic random source. All randomness in the repository
// flows through explicitly seeded RNGs so every experiment is reproducible.
type RNG struct {
	r *rand.Rand
	// cached second Box-Muller variate
	spare    float64
	hasSpare bool
}

// NewRNG returns a PCG-backed generator seeded with (seed, stream). Distinct
// streams are statistically independent, which the Monte-Carlo harness uses
// to give each replica its own stream.
func NewRNG(seed, stream uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, stream))}
}

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform integer in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Norm returns a standard-normal variate via the polar Box-Muller method.
func (g *RNG) Norm() float64 {
	if g.hasSpare {
		g.hasSpare = false
		return g.spare
	}
	for {
		u := 2*g.r.Float64() - 1
		v := 2*g.r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			g.spare = v * f
			g.hasSpare = true
			return u * f
		}
	}
}

// NormVec fills dst with independent standard-normal variates and returns it.
func (g *RNG) NormVec(dst []float64) []float64 {
	for i := range dst {
		dst[i] = g.Norm()
	}
	return dst
}

// Perm returns a uniform random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Summary holds the descriptive statistics of a sample, including the
// five-number summary rendered by the paper's box plots (Figs 5–6).
type Summary struct {
	N               int
	Mean, Std       float64
	Min, Q1, Median float64
	Q3, Max         float64
	IQR             float64 // Q3 - Q1
	WhiskerLo       float64 // smallest value ≥ Q1 - 1.5·IQR
	WhiskerHi       float64 // largest value ≤ Q3 + 1.5·IQR
}

// Summarize computes a Summary of x. It panics on an empty sample.
func Summarize(x []float64) Summary {
	if len(x) == 0 {
		panic("stats: empty sample")
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	n := len(s)

	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}

	sm := Summary{
		N: n, Mean: mean, Std: std,
		Min: s[0], Max: s[n-1],
		Q1: quantileSorted(s, 0.25), Median: quantileSorted(s, 0.5), Q3: quantileSorted(s, 0.75),
	}
	sm.IQR = sm.Q3 - sm.Q1
	lo, hi := sm.Q1-1.5*sm.IQR, sm.Q3+1.5*sm.IQR
	sm.WhiskerLo, sm.WhiskerHi = sm.Max, sm.Min
	for _, v := range s {
		if v >= lo && v < sm.WhiskerLo {
			sm.WhiskerLo = v
		}
		if v <= hi && v > sm.WhiskerHi {
			sm.WhiskerHi = v
		}
	}
	return sm
}

// quantileSorted returns the linearly interpolated q-quantile (type-7,
// the R/NumPy default) of the sorted sample s.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	i := int(math.Floor(h))
	if i >= n-1 {
		return s[n-1]
	}
	frac := h - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}
