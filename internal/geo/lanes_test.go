package geo

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"geompc/internal/stats"
)

// laneRadii are distances r = h/β meant to hit every path of a row: four
// random points in each panel, each panel edge and one ulp either side, the
// ends of the table's range from both sides, and what lies outside it.
func laneRadii(rng *stats.RNG) []float64 {
	var rs []float64
	for p := uint64(0); p <= tabPanels; p++ {
		edge := math.Float64frombits((tabFirst + p) << 50)
		rs = append(rs, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
		for i := 0; i < 4 && p < tabPanels; i++ {
			rs = append(rs, edge*(1+0.19*rng.Float64()))
		}
	}
	return append(rs, 0, 5e-324, 1e-9, 0x1p-20, 0x1p9, 600, 1e300, math.Inf(1), math.NaN())
}

// sameCovBits fails the test at the first entry of got whose bits are not
// cov's at the distance in hs.
func sameCovBits(t *testing.T, what string, cov func(h float64) float64, hs, got []float64) {
	t.Helper()
	for j, h := range hs {
		if want := cov(h); math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Fatalf("%s: h=%.17g: row path %.17g (%#x), Cov %.17g (%#x)", what, h, got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
		}
	}
}

// TestLanesMatchCov: at every row-path width, the row path of a bound
// Matérn kernel gives each entry the bits of a per-entry Cov — at 40 random
// θ (ν ∈ (0, 8], β over nine decades) on distances across all panels in a
// shuffled row of odd length, through a kernel whose panels are all built
// (lanes wherever the width has them), through one bound over a third of
// the table (entries outside it direct, the vectors holding them through
// Cov) and through one bound over nothing (the direct row, Bessel values
// through bessel.Order); and at a θ whose overflowing panels take the
// direct path. ν = 0.5 and ν > 8 carry no table.
func TestLanesMatchCov(t *testing.T) {
	forEachLaneWidth(t, func(t *testing.T) {
		rng := stats.NewRNG(27, 0)
		k := Matern{Dimension: 2}
		thetas := [][]float64{{1.7e308, 1, 2.5}, {1, 0.1, 0.5}, {1, 0.1, 9}}
		for i := 0; i < 40; i++ {
			nu := 8 * (1 - rng.Float64())
			beta := math.Pow(10, -6+9*rng.Float64())
			thetas = append(thetas, []float64{0.1 + 2*rng.Float64(), beta, nu})
		}
		for _, theta := range thetas {
			rs := laneRadii(rng)
			hs := make([]float64, len(rs)|1)
			for j, e := range rng.Perm(len(rs)) {
				hs[j] = rs[e] * theta[1]
			}
			for _, span := range []func() (float64, float64){everywhere, spanOf(1e-3*theta[1], 0.5*theta[1]), NoSpan} {
				bk := k.Bind(theta, span).(*maternBound)
				got := append([]float64(nil), hs...)
				bk.covRow(got)
				sameCovBits(t, fmt.Sprint("θ=", theta), bk.Cov, hs, got)
			}
		}
	})
}

// TestSqExpLanesMatchCov: at every row-path width, the squared-exponential
// row path gives each entry the bits of a per-entry Cov — at 60
// random θ (σ² over twelve decades, β over ten), at β ≤ 0, β = +Inf and NaN
// θ, on shuffled rows of odd length whose r = h²/β run from 0 past 745
// (where exp(−r) is 0), with subnormal, infinite and NaN distances; at r =
// 708 and one ulp either side, where the lanes do every whole vector up to
// 708 and none above it; and in every tile (diagonal, off-diagonal, ragged
// edge) of Σ filled through Bind, and in two diagonal tiles with m ≠ n
// (16×11, 11×16).
func TestSqExpLanesMatchCov(t *testing.T) {
	forEachLaneWidth(t, func(t *testing.T) {
		rng := stats.NewRNG(37, 0)
		k := SqExp{Dimension: 2}
		nan, inf := math.NaN(), math.Inf(1)
		thetas := [][]float64{{1, 0}, {1, math.Copysign(0, -1)}, {1, -0.3}, {1, inf}, {nan, 0.1}, {1, nan}, {1.7e308, 0.2}, {5e-324, 0.2}}
		for i := 0; i < 60; i++ {
			thetas = append(thetas, []float64{math.Pow(10, -6+12*rng.Float64()), math.Pow(10, -4+10*rng.Float64())})
		}
		for _, theta := range thetas {
			cov := k.Bind(theta, NoSpan).Cov
			beta := math.Abs(theta[1])
			if !(beta > 0 && beta < inf) {
				beta = 0.1
			}
			rs := []float64{0, 1e-300, 708, 745, 746, 1e4, inf, nan}
			for len(rs) < 8*18 {
				rs = append(rs, math.Pow(10, -12+14.8*rng.Float64())) // up to 631
			}
			hs := make([]float64, len(rs)|1)
			for j, e := range rng.Perm(len(rs)) {
				hs[j] = math.Sqrt(rs[e] * beta)
			}
			hs = append(hs, 5e-324, 1e-170)
			got := append([]float64(nil), hs...)
			k.Bind(theta, NoSpan).covRow(got)
			sameCovBits(t, fmt.Sprint("θ=", theta), cov, hs, got)
		}
		// At h = β = r, h·h/β is r exactly.
		for _, r := range []float64{math.Nextafter(708, 0), 708, math.Nextafter(708, inf)} {
			theta := []float64{1.3, r}
			hs := make([]float64, 4*8+3)
			for j := range hs {
				hs[j] = r
			}
			if w := laneWidth; w > 0 {
				want := len(hs) / w * w
				if r > 708 {
					want = 0
				}
				if n := sqexpRow(w, append([]float64(nil), hs...), theta[0], r); n != want {
					t.Errorf("r = %.17g: lanes did %d of %d entries, want %d", r, n, len(hs), want)
				}
			}
			got := append([]float64(nil), hs...)
			k.Bind(theta, NoSpan).covRow(got)
			sameCovBits(t, fmt.Sprint("r=", r), k.Bind(theta, NoSpan).Cov, hs, got)
		}
		locs := GenerateLocations(75, 2, stats.NewRNG(38, 0))
		n, ts := len(locs), 16
		// The tile grid, and two diagonal tiles with m ≠ n, where the
		// mirrored block meets the computed one.
		tiles := [][4]int{{16, 16, 16, 11}, {16, 16, 11, 16}}
		for r0 := 0; r0 < n; r0 += ts {
			for c0 := 0; c0 < n; c0 += ts {
				tiles = append(tiles, [4]int{r0, c0, min(ts, n-r0), min(ts, n-c0)})
			}
		}
		for _, theta := range [][]float64{{1, 0.03}, {0.2402, 0.02214}, {2.5, 1e-3}} {
			bk := k.Bind(theta, NoSpan)
			for _, tl := range tiles {
				r0, c0, m, nn := tl[0], tl[1], tl[2], tl[3]
				got := make([]float64, m*nn)
				FillTile(bk, locs, r0, c0, m, nn, 1e-8, got, nn)
				for i := 0; i < m; i++ {
					for j := 0; j < nn; j++ {
						want := bk.Cov(locs[r0+i].Dist(locs[c0+j]))
						if r0+i == c0+j {
							want = bk.Cov(0) + 1e-8
						}
						if math.Float64bits(got[i*nn+j]) != math.Float64bits(want) {
							t.Fatalf("θ=%v tile (%d,%d) entry (%d,%d): FillTile %.17g, Cov %.17g", theta, r0, c0, i, j, got[i*nn+j], want)
						}
					}
				}
			}
		}
	})
}

// TestLanesRunWhereReady: at a vector width, a row whose entries all lie in
// built panels is done in lanes to its last whole vector, and the lanes stop
// at the first vector holding an entry outside the bound span, whose panel
// is not built.
func TestLanesRunWhereReady(t *testing.T) {
	forEachLaneWidth(t, func(t *testing.T) {
		if laneWidth == 0 {
			t.Skip("the Go kernel has no lanes")
		}
		hs := make([]float64, 4*laneWidth+3)
		for j := range hs {
			hs[j] = 0.5 + 0.01*float64(j)
		}
		b := Matern{Dimension: 2}.Bind([]float64{1, 1, 1.3}, spanOf(hs[0], hs[len(hs)-1])).(*maternBound)
		ready := func() int {
			return maternRow(laneWidth, append([]float64(nil), hs...), b.beta, b.tab.ready[0], b.tab.ready[1], &b.tab.coef)
		}
		if n := ready(); n != 4*laneWidth {
			t.Errorf("all panels built: lanes did %d of %d entries, want %d", n, len(hs), 4*laneWidth)
		}
		hs[2*laneWidth+1] = 100 // outside the span: not built
		if n := ready(); n != 2*laneWidth {
			t.Errorf("unbuilt panel in the third vector: lanes did %d entries, want %d", n, 2*laneWidth)
		}
	})
}

// TestSharedKernelConcurrentFill: eight goroutines filling the tiles of one
// Σ(θ) through one bound kernel write the matrix a serial fill through its
// own kernel writes, bit for bit: the kernel is read-only once Bind returns.
// Run it under -race.
func TestSharedKernelConcurrentFill(t *testing.T) {
	locs := GenerateLocations(200, 2, stats.NewRNG(28, 0))
	n, ts := len(locs), 24
	k := Matern{Dimension: 2}
	for _, theta := range [][]float64{{1, 0.03, 1}, {0.7, 0.2, 1.7}, {1.3, 0.05, 0.31}} {
		lo, hi := Span(locs, locs)
		serial := k.Bind(theta, spanOf(lo, hi))
		want := bitsDigest(lowerTiles(n, ts, func(r0, c0, m, nn int, dst []float64) {
			FillTile(serial, locs, r0, c0, m, nn, 1e-8, dst, nn)
		}))
		var starts [][4]int
		lowerTiles(n, ts, func(r0, c0, m, nn int, dst []float64) { starts = append(starts, [4]int{r0, c0, m, nn}) })
		tiles := make([][]float64, len(starts))
		shared := k.Bind(theta, spanOf(lo, hi))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(starts); i += 8 {
					s := starts[i]
					tiles[i] = make([]float64, s[2]*s[3])
					FillTile(shared, locs, s[0], s[1], s[2], s[3], 1e-8, tiles[i], s[3])
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
		var all []float64
		for _, tl := range tiles {
			all = append(all, tl...)
		}
		if got := bitsDigest(all); got != want {
			t.Errorf("θ=%v: 8 goroutines on one kernel digest %#x, serial fill %#x", theta, got, want)
		}
	}
}
