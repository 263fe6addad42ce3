package geo

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"geompc/internal/stats"
)

// maternTableTol is the bound kernel's error contract on the test grid:
// relative distance from the direct evaluator. The interpolant's truncation
// error is below 1e-16; what is left is rounding in the direct routine
// itself (largest at r → 2⁻, ν near ½, where Temme's series cancels), which
// the table smooths and a pointwise comparison sees.
const maternTableTol = 1e-14

// checkBound compares the bound and the direct evaluator at distance h.
func checkBound(t *testing.T, bk BoundKernel, theta []float64, h, tol float64) {
	t.Helper()
	want := Matern{Dimension: 2}.Bind(theta, NoSpan).Cov(h)
	got := bk.Cov(h)
	// The absolute term is for values so small that an ulp is a subnormal step.
	if math.Abs(got-want) > tol*want+8*math.SmallestNonzeroFloat64 {
		t.Errorf("θ=%v h=%.17g: bound %.17g, direct %.17g (rel %.3g)", theta, h, got, want, math.Abs(got-want)/want)
	}
}

func TestMaternTableMatchesDirect(t *testing.T) {
	nus := []float64{0.01, 0.3, 1, 1.5, 2, 2.5, tabMaxNu}
	rng := stats.NewRNG(31, 0)
	for i := 0; i < 10; i++ {
		nus = append(nus, 0.01+2.5*rng.Float64())
	}
	for _, nu := range nus {
		// r log-spaced over [1e-3, 700], reached through β ≠ 1.
		theta := []float64{1.3, 0.17, nu}
		bk := Matern{Dimension: 2}.Bind(theta, everywhere)
		const steps = 3000
		for i := 0; i <= steps; i++ {
			r := 1e-3 * math.Pow(700/1e-3, float64(i)/steps)
			checkBound(t, bk, theta, r*theta[1], maternTableTol)
		}
		// Every panel edge (each fourth is a binade boundary), one ulp to
		// either side, β = 1 so that r = h.
		theta = []float64{0.8, 1, nu}
		bk = Matern{Dimension: 2}.Bind(theta, everywhere)
		for p := uint64(0); p <= tabPanels; p++ {
			edge := math.Float64frombits((tabFirst + p) << 50)
			for _, r := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))} {
				checkBound(t, bk, theta, r, maternTableTol)
			}
		}
		// Outside the tabulated binades the bound kernel is the direct
		// routine: same bits.
		for _, r := range []float64{5e-324, 1e-300, 1e-9, 0x1p-20, math.Nextafter(0x1p9, 2000), 700, 742, 1500, 1e300, math.Inf(1)} {
			checkBound(t, bk, theta, r, 0)
		}
	}
}

// TestMaternTableRange: Bind builds the panels that hold an r = h/β of
// its span and no others — none for a span outside (2⁻²⁰, 2⁹], the first
// and the last panel for spans one ulp inside either end, the panel ending
// at r = 2 for r = 2 — and entries outside the built panels take the
// direct path, with Cov's bits; so does a panel where g overflows, and ν
// above tabMaxNu and ν = 0.5 carry no table.
func TestMaternTableRange(t *testing.T) {
	// The first and last panels are the ones the constants say.
	if math.Float64bits(math.Ldexp(1, tabMinExp))>>50 != tabFirst {
		t.Error("tabFirst is not the panel of 2^tabMinExp")
	}
	k := Matern{Dimension: 2}
	theta := []float64{1, 1, 1.2}
	built := func(lo, hi float64) (ps []uint64) {
		b := k.Bind(theta, spanOf(lo, hi)).(*maternBound)
		for p := uint64(0); b.tab != nil && p < tabPanels; p++ {
			if b.tab.isReady(p) {
				ps = append(ps, p)
			}
		}
		return ps
	}
	for _, c := range []struct {
		lo, hi float64
		want   []uint64
	}{
		{0x1p-20, 0x1p-20, nil},
		{math.Nextafter(0x1p9, 2000), 1e300, nil},
		{2, 1, nil},
		{math.Nextafter(0x1p-20, 1), math.Nextafter(0x1p-20, 1), []uint64{0}},
		{0x1p9, 0x1p9, []uint64{tabPanels - 1}},
		{2, 2, []uint64{4*(1-tabMinExp) - 1}}, // r = 2 ends its panel, where the direct routine changes series
		{math.Nextafter(0.5, 1), 0.75, []uint64{4 * (-1 - tabMinExp), 4*(-1-tabMinExp) + 1}},
	} {
		if got := built(c.lo, c.hi); !slices.Equal(got, c.want) {
			t.Errorf("span [%g, %g] built panels %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if got := built(0, math.Inf(1)); len(got) != tabPanels {
		t.Errorf("span [0, +Inf] built %d panels, want all %d", len(got), tabPanels)
	}
	// Outside the built panels an entry is direct.
	b := k.Bind(theta, spanOf(math.Nextafter(0.5, 1), 0.75))
	for _, h := range []float64{0.3, 0.5, 0.76, 3, 100} {
		if got, want := b.Cov(h), k.Bind(theta, NoSpan).Cov(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("h=%g outside the span: bound %g, direct %g", h, got, want)
		}
	}
	// A panel where g overflows is left to the direct routine.
	theta = []float64{1.7e308, 1, 2.5}
	ob := k.Bind(theta, everywhere).(*maternBound)
	if got, want := ob.Cov(100), k.Bind(theta, NoSpan).Cov(100); got != want {
		t.Errorf("overflowing panel: bound %g, direct %g", got, want)
	}
	if ob.tab.isReady(4*(6-tabMinExp) + 2) {
		t.Error("overflowing panel was tabulated")
	}
	// ν above tabMaxNu and ν = 0.5 carry no table.
	for _, nu := range []float64{0.5, math.Nextafter(tabMaxNu, 100), 20} {
		if k.Bind([]float64{1, 1, nu}, everywhere).(*maternBound).tab != nil {
			t.Errorf("ν=%g has a table", nu)
		}
	}
}

// lowerTiles assembles the lower tiles of Σ over locs, in tile order, with
// fill producing each one.
func lowerTiles(n, ts int, fill func(r0, c0, m, nn int, dst []float64)) []float64 {
	var out []float64
	for r0 := 0; r0 < n; r0 += ts {
		for c0 := 0; c0 <= r0; c0 += ts {
			m, nn := min(ts, n-r0), min(ts, n-c0)
			buf := make([]float64, m*nn)
			fill(r0, c0, m, nn, buf)
			out = append(out, buf...)
		}
	}
	return out
}

// denseTiles is lowerTiles over an already assembled row-major n×n matrix.
func denseTiles(dense []float64, n, ts int) []float64 {
	return lowerTiles(n, ts, func(r0, c0, m, nn int, dst []float64) {
		for i := 0; i < m; i++ {
			copy(dst[i*nn:(i+1)*nn], dense[(r0+i)*n+c0:])
		}
	})
}

func bitsDigest(v []float64) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, v)
	return h.Sum64()
}

func TestBoundFillBitsIndependentOfOrder(t *testing.T) {
	locs := GenerateLocations(100, 2, stats.NewRNG(22, 0))
	n, ts := len(locs), 16
	k := Matern{Dimension: 2}
	theta := []float64{1.3, 0.15, 1.2}
	// A fresh bound kernel per tile: what CovTile callers get.
	perTile := lowerTiles(n, ts, func(r0, c0, m, nn int, dst []float64) {
		CovTile(locs, r0, c0, m, nn, k, theta, 1e-8, dst, nn)
	})
	// One bound kernel for every tile, over the locations' span: what
	// mle.Problem.NegLogLik does.
	lo, hi := Span(locs, locs)
	bk := k.Bind(theta, spanOf(lo, hi))
	once := lowerTiles(n, ts, func(r0, c0, m, nn int, dst []float64) {
		FillTile(bk, locs, r0, c0, m, nn, 1e-8, dst, nn)
	})
	// The same over every panel of the table.
	all := k.Bind(theta, everywhere)
	wide := lowerTiles(n, ts, func(r0, c0, m, nn int, dst []float64) {
		FillTile(all, locs, r0, c0, m, nn, 1e-8, dst, nn)
	})
	// One bound kernel visiting the entries one by one, in a shuffled order.
	dense := make([]float64, n*n)
	sbk := k.Bind(theta, spanOf(lo, hi))
	for _, e := range stats.NewRNG(23, 0).Perm(n * n) {
		i, j := e/n, e%n
		dense[e] = sbk.Cov(locs[i].Dist(locs[j]))
		if i == j {
			dense[e] += 1e-8
		}
	}
	shuffled := denseTiles(dense, n, ts)
	want := bitsDigest(perTile)
	if got := bitsDigest(once); got != want {
		t.Errorf("bind-once fill digest %#x, tile-by-tile CovTile %#x", got, want)
	}
	if got := bitsDigest(wide); got != want {
		t.Errorf("fill bound over every panel digest %#x, tile-by-tile CovTile %#x", got, want)
	}
	if got := bitsDigest(shuffled); got != want {
		t.Errorf("shuffled-order digest %#x, tile-by-tile CovTile %#x", got, want)
	}
}

// TestDirectPathsPinned pins CovTile's bits on the paths the table does not
// touch, as digests taken at the commit before the table. For ν = 0.5 at
// β = 0.17 the pin is that commit's CovMatrix: its CovTile computed r as
// h·(1/β), one rounding away from the direct evaluator's h/β, and digested to
// 0x92d70632a0a69b5. At β = 0.15 the two happened to agree on these
// locations, and for sqexp they were always the same code.
func TestDirectPathsPinned(t *testing.T) {
	locs := GenerateLocations(60, 2, stats.NewRNG(21, 0))
	n, ts := len(locs), 16
	for _, c := range []struct {
		k     Kernel
		theta []float64
		want  uint64
	}{
		{SqExp{Dimension: 2}, []float64{1.1, 0.07}, 0xd7f232cddccd090},
		{Matern{Dimension: 2}, []float64{1.3, 0.15, 0.5}, 0x4ba1454b3c6d4d83},
		{Matern{Dimension: 2}, []float64{1.3, 0.17, 0.5}, 0xef3379ee1f5d21a0},
	} {
		tiles := lowerTiles(n, ts, func(r0, c0, m, nn int, dst []float64) {
			CovTile(locs, r0, c0, m, nn, c.k, c.theta, 1e-8, dst, nn)
		})
		dense := denseTiles(CovMatrix(locs, c.k, c.theta, 1e-8), n, ts)
		if got := bitsDigest(tiles); got != c.want {
			t.Errorf("%s θ=%v: CovTile digest %#x, pinned %#x", c.k.Name(), c.theta, got, c.want)
		}
		if got := bitsDigest(dense); got != c.want {
			t.Errorf("%s θ=%v: CovMatrix digest %#x, pinned %#x", c.k.Name(), c.theta, got, c.want)
		}
	}
}

func TestBindInvalidTheta(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	k := Matern{Dimension: 2}
	for _, theta := range [][]float64{
		{1, 0.1, 0}, {1, 0.1, -0.7}, {1, 0.1, -1}, {1, 0.1, nan}, {1, 0.1, inf}, {1, 0.1, 20}, {1, 0.1, 400},
		{1, 0, 1}, {1, -0.1, 1}, {1, nan, 1}, {1, inf, 1}, {1, 5e-324, 1},
		{nan, 0.1, 1}, {inf, 0.1, 1}, {-1, 0.1, 1}, {0, 0.1, 1},
	} {
		bk := k.Bind(theta, everywhere)
		for _, h := range []float64{0, 1e-300, 1e-3, 0.1, 0.2, 1.41, 70, inf} {
			got, want := bk.Cov(h), k.Bind(theta, NoSpan).Cov(h)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("θ=%v h=%g: bound %g, Cov %g", theta, h, got, want)
			}
		}
	}
}

// FuzzMaternBound holds the bound kernel to the direct evaluator at any
// (ν, β, h): never a panic, a NaN or a negative value; the same bits
// wherever the table does not apply; and inside the model's domain a
// relative distance that leaves room, over the grid's 1e-14, for the direct
// routine's own rounding near r → 2⁻ (6e6 random draws peaked at 1.5e-14).
// It also holds the row path to the bound kernel's own Cov, bit for bit,
// bound over every panel, over part of the row and over nothing.
func FuzzMaternBound(f *testing.F) {
	f.Add(1.0, 0.1, 0.05)
	f.Add(0.5, 0.3, 0.2)
	f.Add(0.4447539599745551, 1.0, 1.9997002296842692)
	f.Add(2.5, 0.01, 1.4)
	f.Add(0.01, 2.0, 1e-3)
	f.Add(8.0, 1.0, 512.0)
	f.Add(7.749436264897699, 0.15, 111.3313348645618) // r = 742: K_ν underflows, r^ν·K_ν does not
	f.Add(-1.0, 0.0, 1.0)
	f.Add(math.NaN(), math.Inf(1), -1.0)
	f.Fuzz(func(t *testing.T, nu, beta, h float64) {
		k := Matern{Dimension: 2}
		theta := []float64{1.7, beta, nu}
		got, want := k.Bind(theta, everywhere).Cov(h), k.Bind(theta, NoSpan).Cov(h)
		if math.IsNaN(got) || got < 0 {
			t.Fatalf("ν=%g β=%g h=%g: bound kernel returned %g", nu, beta, h, got)
		}
		r := h / beta
		tabulated := nu > 0 && nu <= tabMaxNu && nu != 0.5 && beta > 0 && r > 0x1p-20 && r <= 0x1p9
		tol := 0.0
		if tabulated {
			tol = 3e-14
		}
		if math.Abs(got-want) > tol*want+8*math.SmallestNonzeroFloat64 || math.IsNaN(want) != math.IsNaN(got) {
			t.Fatalf("ν=%g β=%g h=%g: bound %.17g, direct %.17g", nu, beta, h, got, want)
		}
		// The row path on 19 distances around h (lanes where the host has
		// them): Cov's bits entry by entry.
		row := make([]float64, 19)
		for j := range row {
			row[j] = h * (1 + 0.05*float64(j-9))
		}
		for _, span := range []func() (float64, float64){everywhere, spanOf(h, 1.2*h), NoSpan} {
			bk := k.Bind(theta, span).(*maternBound)
			got := append([]float64(nil), row...)
			bk.covRow(got)
			sameCovBits(t, "row path", bk.Cov, row, got)
		}
	})
}

// FuzzSqExpRow holds the squared-exponential row path to the per-entry Cov,
// bit for bit, at any (σ², β, h): on 19 distances around h, in both orders,
// so that at a vector width the entries at either end are once in a lane
// and once in the tail that goes through Cov.
func FuzzSqExpRow(f *testing.F) {
	f.Add(1.0, 0.03, 0.2)
	f.Add(0.2402, 0.02214, 1.3)
	f.Add(1.7e308, 1e-4, 0.3)
	f.Add(5e-324, 708.0, 708.0)
	f.Add(1.0, -0.5, 0.1)
	f.Add(math.NaN(), 0.1, math.Inf(1))
	f.Fuzz(func(t *testing.T, sigma2, beta, h float64) {
		k := SqExp{Dimension: 2}
		theta := []float64{sigma2, beta}
		row := make([]float64, 19)
		for j := range row {
			row[j] = h * (1 + 0.05*float64(j-9))
		}
		bk := k.Bind(theta, NoSpan)
		for pass := 0; pass < 2; pass++ {
			got := append([]float64(nil), row...)
			bk.covRow(got)
			sameCovBits(t, "row path", bk.Cov, row, got)
			slices.Reverse(row)
		}
	})
}
