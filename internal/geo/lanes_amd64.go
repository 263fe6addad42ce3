package geo

import (
	"math"

	"geompc/internal/hostcpu"
)

// laneWidth is the number of entries maternRow evaluates per vector
// (lanes_amd64.s; DESIGN.md §3.1): 8 with AVX-512F, 4 with AVX2, and 0 —
// every entry through Cov — without AVX2 and FMA, or where the lanes' exp
// (math.Exp's FMA sequence) does not give math.Exp's bits on expProbeArgs.
// It is not a setting: it changes speed, never a bit.
var laneWidth = hostLanes()

func hostLanes() int {
	switch {
	case !hostcpu.AVX2 || !hostcpu.FMA:
		return 0
	case hostcpu.AVX512F && lanesMatchExp(8):
		return 8
	case lanesMatchExp(4):
		return 4
	}
	return 0
}

// expProbeArgs spreads 512 arguments r log-uniformly over the tabulated
// range (2⁻²⁰, 2⁹]; at 28 of them math.Exp's FMA and SSE2 sequences differ.
var expProbeArgs = func() (r [512]float64) {
	for i := range r {
		r[i] = math.Exp2(-20 + 29*(float64(i)+0.5)/float64(len(r)))
	}
	return r
}()

// lanesMatchExp reports whether the lanes at width w return math.Exp's bits
// for −r at every probe argument: at β = 1, on a table whose every panel is
// the constant 1, maternRow returns each lane's exp(−r) untouched.
func lanesMatchExp(w int) bool {
	var unit [tabPanels][tabCoefs]float64
	for p := range unit {
		unit[p][0] = 1
	}
	x := expProbeArgs
	maternRow(w, x[:], 1, ^uint64(0), 1<<(tabPanels-64)-1, &unit)
	for i, r := range expProbeArgs {
		if math.Float64bits(x[i]) != math.Float64bits(math.Exp(-r)) {
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
