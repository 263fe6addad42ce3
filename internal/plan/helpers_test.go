package plan_test

// Shared helpers for the plan test suite: build the same numeric SPD
// problems the cholesky tests use (unexported there, re-derived here) so
// replay can be checked bit for bit against fresh runs.

import (
	"math"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

const testTS = 16

// newSPDMatrix builds the standard test covariance matrix: n×n in tiles of
// size ts on a p×q process grid, squared-exponential kernel over 2-D
// locations, nugget 1e-8.
func newSPDMatrix(t testing.TB, n, ts, p, q int) (*tile.Matrix, tile.Desc) {
	t.Helper()
	rng := stats.NewRNG(42, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	kfn := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.05}
	d, err := tile.NewDesc(n, ts, p, q)
	if err != nil {
		t.Fatalf("NewDesc: %v", err)
	}
	mat := tile.NewMatrix(d, false)
	mat.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, kfn, theta, 1e-8, tl.Data, tl.N)
	})
	return mat, d
}

// newMaps derives the adaptive precision maps for mat at accuracy ureq and
// applies the storage assignment to the matrix tiles.
func newMaps(t testing.TB, mat *tile.Matrix, ureq float64) *precmap.Maps {
	t.Helper()
	km := precmap.FromMatrix(mat, ureq, prec.CholeskySet)
	maps := precmap.New(km, ureq)
	mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
	return maps
}

// newConfig assembles a numeric cholesky.Config: nt tiles, the given rank
// grid and devices per rank, adaptive maps at ureq.
func newConfig(t testing.TB, nt, ranks, devPerRank int, ureq float64) cholesky.Config {
	t.Helper()
	p, q := tile.SquarestGrid(ranks)
	mat, d := newSPDMatrix(t, nt*testTS, testTS, p, q)
	maps := newMaps(t, mat, ureq)
	plat, err := runtime.NewPlatform(hw.SummitNode, ranks, devPerRank)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return cholesky.Config{
		Desc:     d,
		Maps:     maps,
		Platform: plat,
		Matrix:   mat,
		Trace:    true,
	}
}

// factorBits flattens the lower-triangular factor into raw float64 bit
// patterns — the currency of bit-exactness assertions.
func factorBits(mat *tile.Matrix, d tile.Desc) []uint64 {
	var bits []uint64
	for i := 0; i < d.NT; i++ {
		for j := 0; j <= i; j++ {
			tl := mat.At(i, j)
			for _, v := range tl.Data {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	return bits
}

// sameBits fails the test if two factors differ in any bit.
func sameBits(t *testing.T, want, got []uint64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: factor length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: factor differs at element %d: %016x != %016x",
				label, i, got[i], want[i])
		}
	}
}
