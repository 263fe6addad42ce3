package sweep_test

// The executor's reason to exist: a serial-vs-parallel golden-digest
// property test over the cross product of communication strategy ×
// platform. Every grid point runs a real numeric Cholesky factorization;
// schedule digests, factor-bit digests and the run's Stats must be
// identical for every worker count.

import (
	"math"
	"reflect"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/obs"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

const (
	goldenNT = 5
	goldenTS = 16
)

// goldenPoint is one cell of the property grid.
type goldenPoint struct {
	strat             cholesky.Strategy
	ranks, devPerRank int
}

// goldenGrid is the strategy × platform cross product: six points, so a
// four-worker pool shares work.
func goldenGrid() []goldenPoint {
	var grid []goldenPoint
	for _, strat := range []cholesky.Strategy{cholesky.Auto, cholesky.ForceTTC} {
		for _, pl := range [][2]int{{1, 2}, {2, 1}, {2, 2}} {
			grid = append(grid, goldenPoint{strat: strat, ranks: pl[0], devPerRank: pl[1]})
		}
	}
	return grid
}

// goldenConfig builds the numeric problem for one grid point: 5×5 tiles of
// 16 on the point's squarest process grid, squared-exponential covariance,
// adaptive maps at 1e-8. Every call builds fresh state — the matrix is
// factorized in place, so points must never share it.
func goldenConfig(t testing.TB, gp goldenPoint) cholesky.Config {
	t.Helper()
	n := goldenNT * goldenTS
	rng := stats.NewRNG(42, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	p, q := tile.SquarestGrid(gp.ranks)
	d, err := tile.NewDesc(n, goldenTS, p, q)
	if err != nil {
		t.Fatalf("NewDesc: %v", err)
	}
	mat := tile.NewMatrix(d, false)
	mat.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, geo.SqExp{Dimension: 2}, []float64{1, 0.05}, 1e-8, tl.Data, tl.N)
	})
	km := precmap.FromMatrix(mat, 1e-8, prec.CholeskySet)
	maps := precmap.New(km, 1e-8)
	mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })

	plat, err := runtime.NewPlatform(hw.SummitNode, gp.ranks, gp.devPerRank)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return cholesky.Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, Strategy: gp.strat}
}

// goldenDigests is what one grid point must reproduce exactly: the
// engine's schedule digest, the virtual makespan bits, and an FNV digest
// of every factor element's bit pattern.
type goldenDigests struct {
	Schedule uint64
	Makespan uint64
	Factor   uint64
}

// goldenResult is one grid point's outcome: its digests and the run's whole
// runtime.Stats (per-device aggregates and per-precision bytes included).
type goldenResult struct {
	digests goldenDigests
	stats   runtime.Stats
}

func runGoldenPoint(t testing.TB, gp goldenPoint) (goldenResult, error) {
	cfg := goldenConfig(t, gp)
	res, err := cholesky.Run(cfg)
	if err != nil {
		return goldenResult{}, err
	}
	var d obs.Digest
	for i := 0; i < cfg.Desc.NT; i++ {
		for j := 0; j <= i; j++ {
			for _, v := range cfg.Matrix.At(i, j).Data {
				d.WriteUint64(math.Float64bits(v))
			}
		}
	}
	return goldenResult{
		digests: goldenDigests{
			Schedule: res.Stats.ScheduleDigest,
			Makespan: math.Float64bits(res.Stats.Makespan),
			Factor:   d.Sum(),
		},
		stats: res.Stats,
	}, nil
}

// TestGoldenDigestSerialVsParallel: for every point of the strategy ×
// platform grid, the parallel executor reproduces the serial digests and
// the serial run's whole Stats bit for bit at every worker count.
func TestGoldenDigestSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("numeric property grid")
	}
	grid := goldenGrid()
	point := func(i int) (goldenResult, error) { return runGoldenPoint(t, grid[i]) }

	ref, err := sweep.Run(len(grid), sweep.Options{Workers: 0}, point)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := sweep.Run(len(grid), sweep.Options{Workers: workers}, point)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range grid {
			if got[i].digests != ref[i].digests {
				t.Errorf("workers=%d point %+v: digests %+v != serial %+v", workers, grid[i], got[i].digests, ref[i].digests)
			}
			if !reflect.DeepEqual(got[i].stats, ref[i].stats) {
				t.Errorf("workers=%d point %+v: stats\n%+v\n!= serial\n%+v", workers, grid[i], got[i].stats, ref[i].stats)
			}
		}
	}
}
