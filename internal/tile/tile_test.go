package tile

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"geompc/internal/geo"
	"geompc/internal/linalg"
	"geompc/internal/prec"
	"geompc/internal/stats"
)

func TestNewDesc(t *testing.T) {
	d, err := NewDesc(100, 32, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NT != 4 {
		t.Errorf("NT = %d, want 4", d.NT)
	}
	if d.Ranks() != 6 {
		t.Errorf("Ranks = %d, want 6", d.Ranks())
	}
	if _, err := NewDesc(0, 32, 1, 1); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewDesc(100, 32, 3, 2); err == nil {
		t.Error("accepted P > Q")
	}
	// Defaults for zero grid.
	d2, err := NewDesc(10, 5, 0, 0)
	if err != nil || d2.P != 1 || d2.Q != 1 {
		t.Errorf("zero grid not defaulted: %+v, %v", d2, err)
	}
}

func TestTileDim(t *testing.T) {
	d, _ := NewDesc(100, 32, 1, 1)
	dims := []int{32, 32, 32, 4}
	for k, want := range dims {
		if got := d.TileDim(k); got != want {
			t.Errorf("TileDim(%d) = %d, want %d", k, got, want)
		}
	}
	// Exact multiple: all tiles full.
	d2, _ := NewDesc(96, 32, 1, 1)
	if d2.NT != 3 || d2.TileDim(2) != 32 {
		t.Errorf("exact multiple handled wrong: NT=%d last=%d", d2.NT, d2.TileDim(2))
	}
}

func TestSquarestGrid(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 12: {3, 4}, 7: {1, 7}, 36: {6, 6}, 384: {16, 24}}
	for n, want := range cases {
		p, q := SquarestGrid(n)
		if p != want[0] || q != want[1] {
			t.Errorf("SquarestGrid(%d) = %d×%d, want %d×%d", n, p, q, want[0], want[1])
		}
		if p*q != n || p > q {
			t.Errorf("SquarestGrid(%d) invalid: %d×%d", n, p, q)
		}
	}
}

func TestRankOfBlockCyclic(t *testing.T) {
	d, _ := NewDesc(320, 32, 2, 3)
	// Block-cyclic: rank depends on (i mod P, j mod Q).
	if d.RankOf(0, 0) != 0 || d.RankOf(1, 0) != 3 || d.RankOf(0, 1) != 1 || d.RankOf(2, 3) != 0 {
		t.Error("block-cyclic mapping wrong")
	}
	// Every rank must own at least one tile of a 10×10 grid.
	seen := make(map[int]bool)
	for i := 0; i < d.NT; i++ {
		for j := 0; j <= i; j++ {
			r := d.RankOf(i, j)
			if r < 0 || r >= d.Ranks() {
				t.Fatalf("rank %d out of range", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != d.Ranks() {
		t.Errorf("only %d of %d ranks own tiles", len(seen), d.Ranks())
	}
}

func TestMatrixStructure(t *testing.T) {
	d, _ := NewDesc(70, 32, 1, 1)
	m := NewMatrix(d, false)
	if got := d.LowerTileCount(); got != 6 {
		t.Errorf("LowerTileCount = %d, want 6", got)
	}
	// Partial trailing tiles.
	last := m.At(2, 2)
	if last.M != 6 || last.N != 6 {
		t.Errorf("trailing tile dims %dx%d, want 6x6", last.M, last.N)
	}
	edge := m.At(2, 0)
	if edge.M != 6 || edge.N != 32 {
		t.Errorf("edge tile dims %dx%d, want 6x32", edge.M, edge.N)
	}
	defer func() {
		if recover() == nil {
			t.Error("At above diagonal did not panic")
		}
	}()
	m.At(0, 1)
}

func TestFillAndToDense(t *testing.T) {
	rng := stats.NewRNG(1, 0)
	locs := geo.GenerateLocations(48, 2, rng)
	k := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.1}
	d, _ := NewDesc(48, 16, 1, 1)
	m := NewMatrix(d, false)
	m.Fill(func(t *Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, t.M, t.N, k, theta, 0, t.Data, t.N)
	})
	dense := m.ToDense()
	ref := geo.CovMatrix(locs, k, theta, 0)
	for i := range ref {
		if dense[i] != ref[i] {
			t.Fatalf("dense[%d] = %g, want %g", i, dense[i], ref[i])
		}
	}
}

// FillParallel hands every tile to the generator exactly once with Fill's
// offsets, never runs it on more goroutines at once than GOMAXPROCS or than
// tiles.
func TestFillParallel(t *testing.T) {
	d, _ := NewDesc(100, 16, 1, 1) // NT = 7, ragged last tile
	for _, procs := range []int{1, 2, 8, 64} {
		prev := runtime.GOMAXPROCS(procs)
		m := NewMatrix(d, false)
		var inFlight, most atomic.Int64
		m.FillParallel(func(t *Tile, r0, c0 int) {
			n := inFlight.Add(1)
			for o := most.Load(); n > o && !most.CompareAndSwap(o, n); o = most.Load() {
			}
			for e := range t.Data {
				t.Data[e] += float64(r0*1000 + c0 + 1)
			}
			inFlight.Add(-1)
		})
		runtime.GOMAXPROCS(prev)
		if g := int(most.Load()); g < 1 || g > procs || g > d.LowerTileCount() {
			t.Errorf("GOMAXPROCS %d: %d concurrent generator calls for %d tiles", procs, g, d.LowerTileCount())
		}
		for i := 0; i < d.NT; i++ {
			for j := 0; j <= i; j++ {
				for _, v := range m.At(i, j).Data {
					if want := float64(i*d.TS*1000 + j*d.TS + 1); v != want {
						t.Fatalf("GOMAXPROCS %d: tile (%d,%d) holds %g, want %g (filled once, at its offsets)", procs, i, j, v, want)
					}
				}
			}
		}
	}
}

func TestTileNormsMatchGlobal(t *testing.T) {
	rng := stats.NewRNG(2, 0)
	locs := geo.GenerateLocations(40, 2, rng)
	k := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.2}
	d, _ := NewDesc(40, 16, 1, 1)
	m := NewMatrix(d, false)
	m.Fill(func(t *Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, t.M, t.N, k, theta, 0, t.Data, t.N)
	})
	_, global := m.TileNorms()
	// Global from tiles must equal the dense Frobenius norm.
	dense := m.ToDense()
	var ss float64
	for _, v := range dense {
		ss += v * v
	}
	want := math.Sqrt(ss)
	if math.Abs(global-want) > 1e-10*want {
		t.Errorf("global norm %g, want %g", global, want)
	}

	// Bit for bit against the per-tile norm on a ragged matrix (n 400, tile
	// 64: 21 full tiles, six 16×64 and a 16×16 corner), where TileNorms sums
	// four tiles of one size per loop.
	locs = geo.GenerateLocations(400, 2, rng)
	d, _ = NewDesc(400, 64, 1, 1)
	m = NewMatrix(d, false)
	m.Fill(func(t *Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, t.M, t.N, k, theta, 1e-8, t.Data, t.N)
	})
	norms, _ := m.TileNorms()
	for i := 0; i < d.NT; i++ {
		for j := 0; j <= i; j++ {
			tl := m.At(i, j)
			if got, want := norms[d.Index(i, j)], linalg.FrobeniusNormMat(tl.M, tl.N, tl.Data, tl.N); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("tile (%d,%d): norm %v, FrobeniusNormMat %v", i, j, got, want)
			}
		}
	}
}

func TestSetStorageQuantizes(t *testing.T) {
	d, _ := NewDesc(8, 4, 1, 1)
	m := NewMatrix(d, false)
	m.Fill(func(t *Tile, r0, c0 int) {
		for i := range t.Data {
			t.Data[i] = math.Pi
		}
	})
	storage := func(i, j int) prec.Precision {
		if i == j {
			return prec.FP64
		}
		return prec.FP32
	}
	m.SetStorage(storage)
	if got := m.At(0, 0).Data[0]; got != math.Pi {
		t.Errorf("diagonal tile quantized: %v", got)
	}
	if got := m.At(1, 0).Data[0]; got != float64(float32(math.Pi)) {
		t.Errorf("off-diagonal tile not FP32-quantized: %v", got)
	}
	m.SetStorage(storage)
	if got := m.At(1, 0).Data[0]; got != float64(float32(math.Pi)) {
		t.Errorf("second SetStorage changed the rounded tile: %v", got)
	}
}

// Index numbers the lower triangle row by row, densely from 0 to
// LowerTileCount()−1, and NewMatrix places every tile, with its data, at
// its index whatever its ignored bool says.
func TestIndexPacksLowerTriangle(t *testing.T) {
	d, _ := NewDesc(1024, 128, 2, 2)
	for _, flag := range []bool{false, true} {
		m := NewMatrix(d, flag)
		next := 0
		for i := 0; i < d.NT; i++ {
			for j := 0; j <= i; j++ {
				if got := d.Index(i, j); got != next {
					t.Fatalf("Index(%d,%d) = %d, want %d", i, j, got, next)
				}
				if tl := m.tiles[next]; tl.I != i || tl.J != j || len(tl.Data) != tl.M*tl.N {
					t.Fatalf("NewMatrix(_, %v): slot %d holds tile (%d,%d) with %d values", flag, next, tl.I, tl.J, len(tl.Data))
				}
				next++
			}
		}
		if next != d.LowerTileCount() {
			t.Fatalf("%d tiles, LowerTileCount() = %d", next, d.LowerTileCount())
		}
	}
}

func TestDescProperties(t *testing.T) {
	if err := quick.Check(func(n16, ts16 uint16) bool {
		n, ts := int(n16%2000)+1, int(ts16%128)+1
		d, err := NewDesc(n, ts, 1, 1)
		if err != nil {
			return false
		}
		// Tile dims must sum to N and all be in (0, TS].
		sum := 0
		for k := 0; k < d.NT; k++ {
			td := d.TileDim(k)
			if td <= 0 || td > ts {
				return false
			}
			sum += td
		}
		return sum == n
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ForwardSolve must reproduce the dense path it replaced in mle — assemble
// the lower factor, then linalg.TrsvLNN — bit for bit, including when the
// last tile row is partial.
func TestForwardSolveMatchesDenseBitForBit(t *testing.T) {
	for _, c := range []struct{ n, ts int }{{48, 16}, {50, 16}, {61, 7}, {5, 8}, {33, 32}} {
		rng := stats.NewRNG(5, uint64(c.n))
		d, _ := NewDesc(c.n, c.ts, 1, 1)
		m := NewMatrix(d, false)
		m.Fill(func(t *Tile, r0, c0 int) {
			for i := range t.Data {
				t.Data[i] = rng.Norm()
			}
			if t.I == t.J {
				for i := 0; i < t.M; i++ {
					t.Data[i*t.N+i] += 4
				}
			}
		})
		want := make([]float64, c.n)
		for i := range want {
			want[i] = rng.Norm()
		}
		got := append([]float64(nil), want...)
		linalg.TrsvLNN(c.n, m.LowerToDense(), c.n, want)
		m.ForwardSolve(got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d ts=%d: x[%d] = %x, dense path %x", c.n, c.ts, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
