package mle

import (
	"math"
	"sync"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/stats"
)

// maternProblem is the end-to-end benchmark's fit_matern shape: 400 points,
// tile 64 (NT = 7), u_req 1e-9.
func maternProblem(t *testing.T) *Problem {
	t.Helper()
	rng := stats.NewRNG(7, 0)
	locs := geo.GenerateLocations(400, 2, rng)
	k := geo.Matern{Dimension: 2}
	z, err := geo.SimulateField(locs, k, []float64{1, 0.03, 1}, 1e-8, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{Locs: locs, Z: z, Kernel: k, Nugget: 1e-8, TileSize: 64, UReq: 1e-9}
}

// TestNegLogLikConcurrentSameProblem: two goroutines evaluate one Problem at
// different θ at the same time, again and again, each with its own RunStats.
// Every value must be the bits a lone evaluation gives: the buffers a
// Problem keeps are never shared between evaluations in flight. Under -race
// this is also the proof that the lazily defaulted fields are safe.
func TestNegLogLikConcurrentSameProblem(t *testing.T) {
	thetas := [2][]float64{{1, 0.03, 1}, {0.7, 0.05, 0.6}}
	var want [2]float64
	var wantStats [2]RunStats
	for i, theta := range thetas {
		var err error
		if want[i], err = maternProblem(t).NegLogLik(theta, &wantStats[i]); err != nil {
			t.Fatal(err)
		}
	}
	if want[0] == want[1] || math.IsInf(want[0], 0) || math.IsInf(want[1], 0) {
		t.Fatalf("serial values %v: want two distinct finite likelihoods", want)
	}
	p := maternProblem(t) // fresh: the first evaluations race to default it
	const rounds = 6
	var wg sync.WaitGroup
	for i, theta := range thetas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var rs RunStats
				got, err := p.NegLogLik(theta, &rs)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) || rs != wantStats[i] {
					t.Errorf("θ=%v round %d: %x with stats %+v beside another evaluation, %x with %+v alone",
						theta, r, math.Float64bits(got), rs, math.Float64bits(want[i]), wantStats[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(p.free); n < 1 || n > 2 {
		t.Errorf("%d buffers kept after two goroutines' evaluations, want 1 or 2", n)
	}
}
