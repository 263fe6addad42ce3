package cholesky

import (
	"fmt"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// TestBytesPartialLastTile pins the simulated bytes of a tiling whose last
// tile is partial (N = 53, TS = 16: tile dims 16, 16, 16, 5) by link ×
// precision, numeric and phantom, on one device, two ranks and two GPUs of
// one rank, against hand sums over TileDim(i)·TileDim(j) that follow
// Algorithm 1's data flow, with no device memory pressure:
//   - H2D: every tile once onto its owner, at its storage format (its first
//     task writes it); and once onto every other device that reads it, as
//     the wire copy (POTRF(k)'s tile for the TRSMs below it, a panel tile
//     for its row's SYRK and GEMMs and its column's GEMMs);
//   - D2H: every published tile (POTRF(k), k < NT−1, and every TRSM) once,
//     as the wire copy;
//   - network: every published tile once per remote rank that consumes it.
func TestBytesPartialLastTile(t *testing.T) {
	const n, ts = 53, 16
	for _, c := range []struct{ ranks, devPerRank int }{{1, 1}, {2, 1}, {1, 2}} {
		pg, qg := tile.SquarestGrid(c.ranks)
		d, err := tile.NewDesc(n, ts, pg, qg)
		if err != nil {
			t.Fatal(err)
		}
		locs := geo.GenerateLocations(n, 2, stats.NewRNG(21, 0))
		mat := tile.NewMatrix(d, false)
		mat.Fill(func(tl *tile.Tile, r0, c0 int) {
			geo.CovTile(locs, r0, c0, tl.M, tl.N, geo.SqExp{Dimension: 2}, []float64{1, 0.05}, 1e-8, tl.Data, tl.N)
		})
		maps := precmap.New(precmap.FromMatrix(mat, 1e-6, prec.CholeskySet), 1e-6)
		plat, err := runtime.NewPlatform(hw.SummitNode, c.ranks, c.devPerRank)
		if err != nil {
			t.Fatal(err)
		}

		dev := func(i, j int) int { return plat.DeviceOf(d.RankOf(i, j), (i/d.P+j/d.Q)%c.devPerRank) }
		dim := func(i, j int) int64 { return int64(d.TileDim(i) * d.TileDim(j)) }
		want := map[string]int64{}
		add := func(link string, i, j int, p prec.Precision, times int) {
			if times > 0 {
				want[link+"/"+p.Format().String()] += int64(times) * dim(i, j) * int64(p.InputBytes())
			}
		}
		loaded := map[[3]int]bool{}
		read := func(device, i, j int) {
			if device != dev(i, j) && !loaded[[3]int{device, i, j}] {
				loaded[[3]int{device, i, j}] = true
				add("bytes_h2d", i, j, maps.Comm[i][j], 1)
			}
		}
		publish := func(i, j int, consumers [][2]int) {
			remote := map[int]bool{}
			for _, c := range consumers {
				if r := d.RankOf(c[0], c[1]); r != d.RankOf(i, j) {
					remote[r] = true
				}
			}
			add("bytes_d2h", i, j, maps.Comm[i][j], 1)
			add("bytes_net", i, j, maps.Comm[i][j], len(remote))
		}
		for i := 0; i < d.NT; i++ {
			for j := 0; j <= i; j++ {
				add("bytes_h2d", i, j, maps.Storage[i][j], 1)
			}
		}
		for k := 0; k < d.NT; k++ {
			var below [][2]int
			for m := k + 1; m < d.NT; m++ {
				below = append(below, [2]int{m, k})
				read(dev(m, k), k, k)         // TRSM(m,k)
				read(dev(m, m), m, k)         // SYRK(m,k)
				consumers := [][2]int{{m, m}} // of TRSM(m,k)'s tile
				for j := k + 1; j < m; j++ {
					read(dev(m, j), m, k) // GEMM(m,j,k)
					read(dev(m, j), j, k)
					consumers = append(consumers, [2]int{m, j})
				}
				for i := m + 1; i < d.NT; i++ {
					consumers = append(consumers, [2]int{i, m})
				}
				publish(m, k, consumers)
			}
			if k < d.NT-1 {
				publish(k, k, below)
			}
		}

		for _, numeric := range []bool{true, false} {
			name := fmt.Sprintf("%d rank(s) × %d GPU(s), numeric %v", c.ranks, c.devPerRank, numeric)
			cfg := Config{Desc: d, Maps: maps, Platform: plat, Strategy: Auto}
			if numeric {
				cfg.Matrix = mat
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := map[string]int64{}
			for link, byPrec := range map[string][prec.Count]int64{
				"bytes_h2d": res.Stats.H2DByPrec, "bytes_d2h": res.Stats.D2HByPrec, "bytes_net": res.Stats.NetByPrec,
			} {
				for p, b := range byPrec {
					if b != 0 {
						got[link+"/"+prec.Precision(p).String()] = b
					}
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: bytes by link × precision\n got %v\nwant %v", name, got, want)
			}
		}
	}
}
