package main

import "sort"

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method): the
// benchmark's driver computes run-to-run spread with that function, so the
// spreads printed here are the ones it will see. One value has no spread
// and is returned three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does: small samples extrapolate
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// percentile returns the p-th percentile (0..100) of v by nearest rank.
func percentile(v []float64, p float64) float64 {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	if len(x) == 0 {
		return 0
	}
	k := int(p/100*float64(len(x))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(x) {
		k = len(x) - 1
	}
	return x[k]
}

// measured is one metric of one run: the median over the run's operations
// with its quartiles and the number of operations behind it. Counts and
// deterministic simulated quantities carry N = 1 and equal quartiles.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func medianOf(v []float64, unit string) measured {
	q1, q2, q3 := quartiles(v)
	return measured{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(v)}
}

func single(v float64, unit string) measured {
	return measured{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}
