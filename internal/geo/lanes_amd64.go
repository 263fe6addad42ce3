package geo

import (
	"math"

	"geompc/internal/hostcpu"
)

// laneWidth is the number of entries maternRow and sqexpRow evaluate per
// vector (lanes_amd64.s; DESIGN.md §3.1): 8 with AVX-512F, 4 with AVX2, and
// 0 — every entry through Cov — without AVX2 and FMA, or where the lanes'
// exp (math.Exp's FMA sequence) does not give math.Exp's bits on
// expProbeArgs. It is not a setting: it changes speed, never a bit.
var laneWidth = hostLanes()

func hostLanes() int {
	switch {
	case hostcpu.Lanes < 4 || !hostcpu.FMA:
		return 0
	case hostcpu.Lanes == 8 && lanesMatchExp(8):
		return 8
	case lanesMatchExp(4):
		return 4
	}
	return 0
}

// expProbeArgs are 512 distances h whose r = h·h runs log-uniformly over
// [2⁻⁴⁰, 708] (the lanes take exp(−r) for r in [0, 708]); at 13 of them
// math.Exp's FMA and SSE2 sequences differ.
var expProbeArgs = func() (h [512]float64) {
	for i := range h {
		h[i] = math.Exp2(-20 + (20+math.Log2(708)/2)*float64(i)/float64(len(h)-1))
	}
	h[len(h)-1] = math.Sqrt(708) // squares to 708 exactly
	return h
}()

// lanesMatchExp reports whether the lanes at width w return math.Exp's bits
// for −h·h at every probe distance: at σ² = β = 1, sqexpRow returns each
// lane's exp(−r) untouched. Both kernels' lanes run the one exp sequence.
func lanesMatchExp(w int) bool {
	x := expProbeArgs
	n := sqexpRow(w, x[:], 1, 1)
	for i, h := range expProbeArgs {
		if i >= n || math.Float64bits(x[i]) != math.Float64bits(math.Exp(-h*h)) {
			return false
		}
	}
	return true
}

// maternRow sets h[j] = C(h[j]) in lanes of width w (4 or 8) from the start
// of h and returns how many entries it did: it stops before a tail shorter
// than a vector and before the first vector with an entry outside the ready
// panels (bit p of ready0 | ready1<<64; no r outside (2⁻²⁰, 2⁹] lies in one).
//
//go:noescape
func maternRow(w int, h []float64, beta float64, ready0, ready1 uint64, coef *[tabPanels][tabCoefs]float64) int

// sqexpRow sets h[j] = σ²·exp(−h[j]·h[j]/β) in lanes of width w (4 or 8)
// from the start of h and returns how many entries it did: it stops before
// a tail shorter than a vector and before the first vector with an r =
// h·h/β that is NaN or outside [0, 708], where exp's ldexp stays normal.
//
//go:noescape
func sqexpRow(w int, h []float64, sigma2, beta float64) int
