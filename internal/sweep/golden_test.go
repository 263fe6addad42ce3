package sweep_test

// The executor's reason to exist: a serial-vs-parallel golden-digest
// property test over the full cross product of scheduling policy ×
// broadcast topology. Every grid point runs a real numeric Cholesky
// factorization; schedule digests AND factor-bit digests must be identical
// for every worker count.

import (
	"math"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/comm"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/obs"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/sched"
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
	policy, topo string
}

// goldenGrid is the policy × topology cross product.
func goldenGrid() []goldenPoint {
	policies := []string{"fifo", "locality", "cp"}
	topos := []string{"binomial", "flat", "chain"}
	var grid []goldenPoint
	for _, p := range policies {
		for _, tp := range topos {
			grid = append(grid, goldenPoint{policy: p, topo: tp})
		}
	}
	return grid
}

// goldenConfig builds the numeric problem for one grid point: 5×5 tiles of
// 16, squared-exponential covariance, adaptive maps at 1e-8, one rank with
// two GPUs. Every call builds fresh state — the matrix is factorized in
// place, so points must never share it.
func goldenConfig(t testing.TB, gp goldenPoint) cholesky.Config {
	t.Helper()
	n := goldenNT * goldenTS
	rng := stats.NewRNG(42, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	d, err := tile.NewDesc(n, goldenTS, 1, 1)
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

	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 2)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	cfg := cholesky.Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat}
	if cfg.Sched, err = sched.ByName(gp.policy); err != nil {
		t.Fatalf("sched.ByName(%q): %v", gp.policy, err)
	}
	if cfg.Bcast, err = comm.TopologyByName(gp.topo); err != nil {
		t.Fatalf("TopologyByName(%q): %v", gp.topo, err)
	}
	return cfg
}

// goldenDigests is what one grid point must reproduce exactly: the
// engine's schedule digest, the virtual makespan bits, and an FNV digest
// of every factor element's bit pattern.
type goldenDigests struct {
	Schedule uint64
	Makespan uint64
	Factor   uint64
}

func runGoldenPoint(t testing.TB, gp goldenPoint, reg *obs.Registry) (goldenDigests, error) {
	cfg := goldenConfig(t, gp)
	res, err := cholesky.Run(cfg)
	if err != nil {
		return goldenDigests{}, err
	}
	if reg != nil {
		reg.Merge(res.Metrics())
	}
	var d obs.Digest
	for i := 0; i < cfg.Desc.NT; i++ {
		for j := 0; j <= i; j++ {
			for _, v := range cfg.Matrix.At(i, j).Data {
				d.WriteUint64(math.Float64bits(v))
			}
		}
	}
	return goldenDigests{
		Schedule: res.Stats.ScheduleDigest,
		Makespan: math.Float64bits(res.Stats.Makespan),
		Factor:   d.Sum(),
	}, nil
}

// TestGoldenDigestSerialVsParallel: for every point of the policy ×
// topology grid, the parallel executor reproduces the serial digests bit
// for bit at every worker count.
func TestGoldenDigestSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("numeric property grid")
	}
	grid := goldenGrid()
	point := func(i int, ctx *sweep.Context) (goldenDigests, error) {
		return runGoldenPoint(t, grid[i], ctx.Reg)
	}

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
			if got[i] != ref[i] {
				t.Errorf("workers=%d point %+v: digests %+v != serial %+v", workers, grid[i], got[i], ref[i])
			}
		}
	}
}

// TestGoldenMergedMetricsMatchSerial: the merged engine metrics (schedule
// counters, conversion counts, traffic bytes — everything except the
// wall-clock sweep/* gauges) are bit-identical across worker counts.
func TestGoldenMergedMetricsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("numeric property grid")
	}
	grid := goldenGrid()[:3] // policy fifo × all topologies is plenty
	render := func(workers int) []obs.Metric {
		reg := obs.NewRegistry()
		_, err := sweep.Run(len(grid), sweep.Options{Workers: workers, Registry: reg},
			func(i int, ctx *sweep.Context) (goldenDigests, error) {
				return runGoldenPoint(t, grid[i], ctx.Reg)
			})
		if err != nil {
			t.Fatal(err)
		}
		var out []obs.Metric
		for _, m := range reg.Snapshot() {
			if len(m.Name) >= 6 && m.Name[:6] == "sweep/" {
				continue
			}
			out = append(out, m)
		}
		return out
	}
	want := render(0)
	if len(want) == 0 {
		t.Fatal("serial sweep merged no engine metrics")
	}
	for _, workers := range []int{1, 4} {
		got := render(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d metrics, serial has %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: metric %q = %+v, serial %+v", workers, want[i].Name, got[i], want[i])
			}
		}
	}
}
