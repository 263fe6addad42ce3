package mle

import (
	"math"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/runtime"
	"geompc/internal/stats"
)

// BenchmarkNegLogLikLevels times one likelihood evaluation of the 2D Matérn
// at its true θ = (1, 0.03, 1) at each accuracy level — exact FP64 and u_req
// 1e-9, 1e-6 and 1e-4 — in one process, at two configurations: n400 is the
// end-to-end benchmark's fit_matern (n 400, tile 64, nugget 1e-8, on
// core.Fit's default machine, one Summit node with six GPUs), n1600 the
// ROADMAP's standing level table (n 1,600, tile 160, nugget 1e-4, on
// Problem's default platform). A level's ns/op over exact's is what mixed
// precision costs, or saves, on the host. The leg names carry no trailing
// -<digits>, which cmd/benchjson reads as GOMAXPROCS.
func BenchmarkNegLogLikLevels(b *testing.B) {
	node, err := runtime.NewPlatform(hw.SummitNode, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	theta := []float64{1, 0.03, 1}
	kern := geo.Matern{Dimension: 2}
	for _, c := range []struct {
		name   string
		n, ts  int
		nugget float64
		plat   *runtime.Platform
	}{{"n400", 400, 64, 1e-8, node}, {"n1600", 1600, 160, 1e-4, nil}} {
		rng := stats.NewRNG(7, 0)
		locs := geo.GenerateLocations(c.n, 2, rng)
		z, err := geo.SimulateField(locs, kern, theta, c.nugget, rng)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range []struct {
			name string
			ureq float64
		}{{"exact", 0}, {"u9", 1e-9}, {"u6", 1e-6}, {"u4", 1e-4}} {
			p := &Problem{Locs: locs, Z: z, Kernel: kern, Nugget: c.nugget, TileSize: c.ts, UReq: l.ureq, Platform: c.plat}
			b.Run(c.name+"/"+l.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if v, err := p.NegLogLik(theta, nil); err != nil || math.IsInf(v, 0) {
						b.Fatalf("−ℓ = %g, error %v", v, err)
					}
				}
			})
		}
	}
}
