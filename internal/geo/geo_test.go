package geo

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"geompc/internal/linalg"
	"geompc/internal/stats"
)

func TestGenerateLocations2D(t *testing.T) {
	rng := stats.NewRNG(1, 0)
	pts := GenerateLocations(100, 2, rng)
	if len(pts) != 100 {
		t.Fatalf("got %d points, want 100", len(pts))
	}
	for i, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Errorf("point %d outside unit square: %+v", i, p)
		}
		if p.Z != 0 {
			t.Errorf("2D point %d has nonzero Z", i)
		}
	}
	// Distinctness (jittered grid must not collide).
	for i := 1; i < len(pts); i++ {
		if pts[i] == pts[i-1] {
			t.Errorf("duplicate adjacent points at %d", i)
		}
	}
}

func TestGenerateLocations3D(t *testing.T) {
	rng := stats.NewRNG(2, 0)
	pts := GenerateLocations(64, 3, rng)
	if len(pts) != 64 {
		t.Fatalf("got %d points, want 64", len(pts))
	}
	hasZ := false
	for _, p := range pts {
		if p.Z != 0 {
			hasZ = true
		}
		if p.Z < 0 || p.Z > 1 {
			t.Errorf("Z outside cube: %v", p.Z)
		}
	}
	if !hasZ {
		t.Error("3D points all have Z == 0")
	}
}

func TestMortonLocality(t *testing.T) {
	// Morton ordering must make index-adjacent points spatially closer on
	// average than a random pairing — that is its whole purpose.
	rng := stats.NewRNG(3, 0)
	pts := GenerateLocations(400, 2, rng)
	var adj float64
	for i := 1; i < len(pts); i++ {
		adj += pts[i].Dist(pts[i-1])
	}
	adj /= float64(len(pts) - 1)
	var far float64
	cnt := 0
	for i := 0; i < len(pts); i += 7 {
		for j := i + 200; j < len(pts); j += 97 {
			far += pts[i].Dist(pts[j])
			cnt++
		}
	}
	far /= float64(cnt)
	if adj >= far/2 {
		t.Errorf("Morton order not local: adjacent mean %g vs distant mean %g", adj, far)
	}
}

// TestMortonOrderPinned pins the points GenerateLocations returns, in
// order: at the benchmark's 2D sizes, where thousands of points share a
// Morton key, the sort must break those ties as it always has, or every
// sampled precision map drawn over the points moves; the small sizes end
// the lattice early.
func TestMortonOrderPinned(t *testing.T) {
	for _, c := range []struct {
		n, dim, ties int
		digest       uint64
	}{
		{262144, 2, 3809, 0x3366d06968f3ca43},
		{409600, 2, 15799, 0xc3ad96028fb9993a},
		{262144, 3, 0, 0x5b6631655bd7e19f},
		{999, 2, 0, 0x5a23c8ba1460b1cb},
		{1001, 3, 0, 0x9e29cc2af4a1b6dd},
	} {
		pts := GenerateLocations(c.n, c.dim, stats.NewRNG(3, 1))
		h := fnv.New64a()
		var b [8]byte
		ties := 0
		for i, p := range pts {
			for _, v := range [3]float64{p.X, p.Y, p.Z} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if i > 0 && mortonKey(p) == mortonKey(pts[i-1]) {
				ties++
			}
		}
		if ties != c.ties {
			t.Errorf("n=%d dim=%d: %d adjacent Morton ties, want %d", c.n, c.dim, ties, c.ties)
		}
		if got := h.Sum64(); got != c.digest {
			t.Errorf("n=%d dim=%d: order digest %#x, want %#x", c.n, c.dim, got, c.digest)
		}
	}
}

func TestSqExpProperties(t *testing.T) {
	k := SqExp{Dimension: 2}
	theta := []float64{1.5, 0.1}
	if got := k.Bind(theta, NoSpan).Cov(0); got != 1.5 {
		t.Errorf("C(0) = %g, want σ² = 1.5", got)
	}
	if k.NumParams() != 2 || k.Name() != "2D-sqexp" || k.Dim() != 2 {
		t.Error("SqExp metadata wrong")
	}
	// Monotone decreasing in h, positive.
	prev := math.Inf(1)
	for h := 0.0; h < 2; h += 0.05 {
		v := k.Bind(theta, NoSpan).Cov(h)
		if v < 0 || v > prev {
			t.Fatalf("sqexp not monotone/positive at h=%g", h)
		}
		prev = v
	}
	// Exact value.
	want := 1.5 * math.Exp(-0.04/0.1)
	if got := k.Bind(theta, NoSpan).Cov(0.2); math.Abs(got-want) > 1e-15 {
		t.Errorf("C(0.2) = %g, want %g", got, want)
	}
	if (SqExp{Dimension: 3}).Name() != "3D-sqexp" {
		t.Error("3D name wrong")
	}
}

func TestMaternHalfIsExponential(t *testing.T) {
	k := Matern{Dimension: 2}
	theta := []float64{2.0, 0.3, 0.5}
	for _, h := range []float64{0, 0.01, 0.1, 0.5, 1, 3} {
		want := 2.0 * math.Exp(-h/0.3)
		if got := k.Bind(theta, NoSpan).Cov(h); math.Abs(got-want) > 1e-12*want {
			t.Errorf("Matern(ν=1/2) at h=%g: %g, want %g", h, got, want)
		}
	}
}

func TestMaternSmoothnessOrdering(t *testing.T) {
	// At short range, higher ν (smoother field) keeps correlation higher.
	k := Matern{Dimension: 2}
	h := 0.05
	rough := k.Bind([]float64{1, 0.1, 0.5}, NoSpan).Cov(h)
	smooth := k.Bind([]float64{1, 0.1, 1.0}, NoSpan).Cov(h)
	if !(smooth > rough) {
		t.Errorf("smooth (ν=1) correlation %g not above rough (ν=0.5) %g at h=%g", smooth, rough, h)
	}
}

func TestMaternContinuityAtZero(t *testing.T) {
	k := Matern{Dimension: 2}
	for _, nu := range []float64{0.5, 1, 1.5, 2.3} {
		theta := []float64{1, 0.2, nu}
		v := k.Bind(theta, NoSpan).Cov(1e-12)
		if math.Abs(v-1) > 1e-6 {
			t.Errorf("ν=%g: C(h→0) = %g, want → σ² = 1", nu, v)
		}
	}
}

func TestMaternTailUnderflow(t *testing.T) {
	k := Matern{Dimension: 2}
	v := k.Bind([]float64{1, 0.01, 1}, NoSpan).Cov(1000)
	if math.IsNaN(v) || v < 0 {
		t.Errorf("deep tail returned %g", v)
	}
}

func TestCovMatrixSymmetricPD(t *testing.T) {
	rng := stats.NewRNG(4, 0)
	locs := GenerateLocations(64, 2, rng)
	for _, k := range []Kernel{SqExp{Dimension: 2}, Matern{Dimension: 2}} {
		theta := []float64{1, 0.1, 0.5}[:k.NumParams()]
		a := CovMatrix(locs, k, theta, 1e-10)
		n := len(locs)
		for i := 0; i < n; i++ {
			if math.Abs(a[i*n+i]-(1+1e-10)) > 1e-15 {
				t.Errorf("%s: diagonal %g", k.Name(), a[i*n+i])
			}
			for j := 0; j < i; j++ {
				if a[i*n+j] != a[j*n+i] {
					t.Fatalf("%s: asymmetry at (%d,%d)", k.Name(), i, j)
				}
			}
		}
		l := append([]float64(nil), a...)
		if err := linalg.PotrfLower(n, l, n); err != nil {
			t.Errorf("%s: covariance not SPD: %v", k.Name(), err)
		}
	}
}

func TestCovTileMatchesFull(t *testing.T) {
	rng := stats.NewRNG(5, 0)
	locs := GenerateLocations(40, 2, rng)
	n := len(locs)
	// CovMatrix stays on the direct evaluator. CovTile is the same bits
	// for sqexp and for Matérn at ν = 0.5; for general ν it goes through
	// the bound kernel's table, within its stated bound of the direct value.
	for _, c := range []struct {
		k     Kernel
		theta []float64
		tol   float64
	}{
		{SqExp{Dimension: 2}, []float64{1.3, 0.15}, 0},
		{Matern{Dimension: 2}, []float64{1.3, 0.15, 0.5}, 0},
		{Matern{Dimension: 2}, []float64{1.3, 0.15, 1}, maternTableTol},
	} {
		full := CovMatrix(locs, c.k, c.theta, 1e-8)
		// Check several tile positions, including diagonal-crossing ones.
		for _, tc := range [][4]int{{0, 0, 8, 8}, {8, 0, 8, 8}, {16, 8, 8, 8}, {32, 32, 8, 8}, {5, 3, 7, 11}, {8, 8, 6, 9}, {8, 8, 9, 6}} {
			r0, c0, m, nn := tc[0], tc[1], tc[2], tc[3]
			tilebuf := make([]float64, m*nn)
			CovTile(locs, r0, c0, m, nn, c.k, c.theta, 1e-8, tilebuf, nn)
			for i := 0; i < m; i++ {
				for j := 0; j < nn; j++ {
					got, want := tilebuf[i*nn+j], full[(r0+i)*n+c0+j]
					if math.Abs(got-want) > c.tol*want {
						t.Fatalf("%s θ=%v tile(%d,%d) entry (%d,%d): %g != %g", c.k.Name(), c.theta, r0, c0, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestCovMatrixMatchesCov: at every row-path width, every entry of
// CovMatrix has the bits of a per-entry Cov bound over NoSpan (the nugget
// added on the diagonal) — the squared exponential, and the Matérn at ν = 0.5 (closed
// form), 1 and 2.7 (Bessel values in bessel.Order's lanes) and 9.5 (above
// the table's ν), each at a β that puts r = h/β on both sides of Temme's
// and CF2's crossover, in 2D and 3D.
func TestCovMatrixMatchesCov(t *testing.T) {
	forEachLaneWidth(t, func(t *testing.T) {
		for _, dim := range []int{2, 3} {
			locs := GenerateLocations(150, dim, stats.NewRNG(uint64(40+dim), 0))
			n := len(locs)
			for _, theta := range [][]float64{{1.3, 0.03}, {1.3, 0.07, 0.5}, {1.3, 0.07, 1}, {1.3, 0.07, 2.7}, {1.3, 0.07, 9.5}} {
				var k Kernel = Matern{Dimension: dim}
				if len(theta) == 2 {
					k = SqExp{Dimension: dim}
				}
				a := CovMatrix(locs, k, theta, 1e-8)
				ref := k.Bind(theta, NoSpan)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						want := ref.Cov(locs[i].Dist(locs[j]))
						if i == j {
							want = ref.Cov(0) + 1e-8
						}
						if got := a[i*n+j]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s θ=%v entry (%d,%d): CovMatrix %.17g (%#x), Cov %.17g (%#x)",
								k.Name(), theta, i, j, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	})
}

func TestSimulateFieldMoments(t *testing.T) {
	// Empirical variance of simulated fields must match σ², and nearby
	// points must be positively correlated under a strong-range kernel.
	rng := stats.NewRNG(6, 0)
	locs := GenerateLocations(100, 2, rng)
	k := SqExp{Dimension: 2}
	theta := []float64{1.0, 0.3}
	var sumsq, cross float64
	reps := 60
	for r := 0; r < reps; r++ {
		z, err := SimulateField(locs, k, theta, 1e-10, stats.NewRNG(7, uint64(r)))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range z {
			sumsq += v * v
		}
		cross += z[0] * z[1] // Morton-adjacent, strongly correlated
	}
	varEmp := sumsq / float64(reps*len(locs))
	if math.Abs(varEmp-1) > 0.15 {
		t.Errorf("empirical variance %g, want ~1", varEmp)
	}
	corr := cross / float64(reps)
	wantCorr := k.Bind(theta, NoSpan).Cov(locs[0].Dist(locs[1]))
	if corr < wantCorr-0.5 {
		t.Errorf("adjacent empirical covariance %g far below theoretical %g", corr, wantCorr)
	}
}

func TestSimulateFieldErrorOnBadTheta(t *testing.T) {
	rng := stats.NewRNG(8, 0)
	locs := GenerateLocations(16, 2, rng)
	// Negative variance makes Σ not SPD.
	if _, err := SimulateField(locs, SqExp{Dimension: 2}, []float64{-1, 0.1}, 0, rng); err == nil {
		t.Error("SimulateField accepted negative variance")
	}
}

func TestPointDist(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by float64) bool {
		ax, ay = math.Mod(ax, 10), math.Mod(ay, 10)
		bx, by = math.Mod(bx, 10), math.Mod(by, 10)
		p, q := Point{X: ax, Y: ay}, Point{X: bx, Y: by}
		d := p.Dist(q)
		return d >= 0 && p.Dist(p) == 0 && math.Abs(d-q.Dist(p)) < 1e-15
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	p := Point{X: 1, Y: 2, Z: 2}
	if got := p.Dist(Point{}); got != 3 {
		t.Errorf("dist = %g, want 3", got)
	}
}

func BenchmarkCovTileSqExp(b *testing.B) {
	rng := stats.NewRNG(9, 0)
	locs := GenerateLocations(4096, 2, rng)
	k := SqExp{Dimension: 2}
	theta := []float64{1, 0.1}
	dst := make([]float64, 64*64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CovTile(locs, 0, 64, 64, 64, k, theta, 0, dst, 64)
	}
}

func BenchmarkCovTileMatern(b *testing.B) {
	rng := stats.NewRNG(10, 0)
	locs := GenerateLocations(4096, 2, rng)
	k := Matern{Dimension: 2}
	theta := []float64{1, 0.1, 1}
	dst := make([]float64, 64*64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CovTile(locs, 0, 64, 64, 64, k, theta, 0, dst, 64)
	}
}

func TestMortonLocality3D(t *testing.T) {
	rng := stats.NewRNG(12, 0)
	pts := GenerateLocations(512, 3, rng)
	var adj float64
	for i := 1; i < len(pts); i++ {
		adj += pts[i].Dist(pts[i-1])
	}
	adj /= float64(len(pts) - 1)
	var far float64
	cnt := 0
	for i := 0; i < len(pts); i += 7 {
		for j := i + 256; j < len(pts); j += 97 {
			far += pts[i].Dist(pts[j])
			cnt++
		}
	}
	far /= float64(cnt)
	if adj >= far/1.5 {
		t.Errorf("3D Morton order weakly local: adjacent %g vs distant %g", adj, far)
	}
}

func TestGenerateLocationsBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dim=4 did not panic")
		}
	}()
	GenerateLocations(10, 4, stats.NewRNG(1, 0))
}

func TestCovMatrixNuggetOnDiagonalOnly(t *testing.T) {
	rng := stats.NewRNG(13, 0)
	locs := GenerateLocations(20, 2, rng)
	k := SqExp{Dimension: 2}
	theta := []float64{1, 0.1}
	a0 := CovMatrix(locs, k, theta, 0)
	a1 := CovMatrix(locs, k, theta, 0.5)
	n := len(locs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := a0[i*n+j]
			if i == j {
				want += 0.5
			}
			if a1[i*n+j] != want {
				t.Fatalf("nugget leaked off-diagonal at (%d,%d)", i, j)
			}
		}
	}
}
