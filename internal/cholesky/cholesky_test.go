package cholesky

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/linalg"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

func TestIDRoundTrip(t *testing.T) {
	for _, nt := range []int{1, 2, 3, 5, 8, 13} {
		s := newIDs(nt)
		seen := make(map[int]bool, s.numTasks)
		check := func(id int, op hw.KernelKind, m, n, k int) {
			t.Helper()
			if seen[id] {
				t.Fatalf("nt=%d: duplicate id %d", nt, id)
			}
			seen[id] = true
			gop, gm, gn, gk := s.decode(id)
			if gop != op || gk != k || (op != hw.KindPotrf && gm != m) || (op == hw.KindGemm && gn != n) {
				t.Fatalf("nt=%d id=%d: decode = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
					nt, id, gop, gm, gn, gk, op, m, n, k)
			}
		}
		for k := 0; k < nt; k++ {
			check(s.potrf(k), hw.KindPotrf, k, 0, k)
		}
		for m := 1; m < nt; m++ {
			for k := 0; k < m; k++ {
				check(s.trsm(m, k), hw.KindTrsm, m, 0, k)
				check(s.syrk(m, k), hw.KindSyrk, m, 0, k)
			}
		}
		for m := 2; m < nt; m++ {
			for n := 1; n < m; n++ {
				for k := 0; k < n; k++ {
					check(s.gemm(m, n, k), hw.KindGemm, m, n, k)
				}
			}
		}
		if len(seen) != s.numTasks {
			t.Fatalf("nt=%d: enumerated %d ids, numTasks=%d", nt, len(seen), s.numTasks)
		}
	}
}

func TestGraphEdgesConsistent(t *testing.T) {
	// For every task, its in-degree must equal the number of times it
	// appears in other tasks' successor lists.
	nt := 6
	g := buildTestGraph(t, nt, 1e-4, nil, Auto, 1, 1)
	indeg := make([]int, g.numTasks)
	var buf []int
	for id := 0; id < g.numTasks; id++ {
		buf = g.Successors(id, buf[:0])
		for _, s := range buf {
			indeg[s]++
		}
	}
	for id := 0; id < g.numTasks; id++ {
		if indeg[id] != g.NumPredecessors(id) {
			op, m, n, k := g.decode(id)
			t.Fatalf("task %d (op=%d m=%d n=%d k=%d): in-degree %d vs declared %d",
				id, op, m, n, k, indeg[id], g.NumPredecessors(id))
		}
	}
}

// TestDataIDsAreTileIndices: every DataID the graph names — in InitialData
// and in each Spec's inputs and output — is desc.Index of its tile and lies
// below NumData() == LowerTileCount().
func TestDataIDsAreTileIndices(t *testing.T) {
	for _, nt := range []int{1, 2, 5} {
		g := buildTestGraph(t, nt, 1e-4, nil, Auto, 2, 2)
		if g.NumData() != g.desc.LowerTileCount() {
			t.Fatalf("nt %d: NumData() = %d, want LowerTileCount() = %d", nt, g.NumData(), g.desc.LowerTileCount())
		}
		want := func(what string, got runtime.DataID, i, j int) {
			t.Helper()
			if int(got) != g.desc.Index(i, j) || int(got) >= g.NumData() {
				t.Errorf("nt %d: %s names datum %d for tile (%d,%d), want %d < %d", nt, what, got, i, j, g.desc.Index(i, j), g.NumData())
			}
		}
		var tiles [][2]int
		for i := 0; i < nt; i++ {
			for j := 0; j <= i; j++ {
				tiles = append(tiles, [2]int{i, j})
			}
		}
		visits := 0
		g.InitialData(func(d runtime.DataID, rank int) {
			if visits < len(tiles) {
				ij := tiles[visits]
				want("InitialData", d, ij[0], ij[1])
			}
			visits++
		})
		if visits != len(tiles) {
			t.Errorf("nt %d: InitialData visits %d data, want %d", nt, visits, len(tiles))
		}
		var s runtime.TaskSpec
		for id := 0; id < g.numTasks; id++ {
			g.Spec(id, &s)
			op, m, n, k := g.decode(id)
			var ins [][2]int
			out := [2]int{m, k}
			switch op {
			case hw.KindPotrf:
				out = [2]int{k, k}
			case hw.KindTrsm:
				ins = [][2]int{{k, k}}
			case hw.KindSyrk:
				ins, out = [][2]int{{m, k}}, [2]int{m, m}
			case hw.KindGemm:
				ins, out = [][2]int{{m, k}, {n, k}}, [2]int{m, n}
			}
			name := g.name(id)
			if len(s.Inputs) != len(ins) {
				t.Fatalf("nt %d: %s has %d inputs, want %d", nt, name, len(s.Inputs), len(ins))
			}
			for x, ij := range ins {
				want(name+" input", s.Inputs[x].Data, ij[0], ij[1])
			}
			want(name+" output", s.Output.Data, out[0], out[1])
		}
	}
}

// TestGraphEdgesMatchDataflow derives the PTG's edges a second, independent
// way: walking the tasks in Algorithm 1's sequential order, each task's
// predecessors follow from the tiles its Spec reads and writes —
// read-after-write and write-after-write on a tile's last writer,
// write-after-read on every reader since. For every task, the inferred set
// must be exactly the predecessors Successors implies, NumPredecessors of
// them, on every tiling, platform, strategy and precision map.
func TestGraphEdgesMatchDataflow(t *testing.T) {
	for nt := 1; nt <= 8; nt++ {
		for _, ranks := range []int{1, 2, 4} {
			for dev := 1; dev <= 3; dev++ {
				for _, strat := range []Strategy{Auto, ForceTTC} {
					for _, kernel := range [][][]prec.Precision{nil, precmap.Uniform(nt, prec.FP16x32)} {
						g := buildTestGraph(t, nt, 1e-4, kernel, strat, ranks, dev)
						name := fmt.Sprintf("nt%d-%dx%d-%v-mixed=%v", nt, ranks, dev, strat, kernel == nil)
						checkDataflowEdges(t, name+"-numeric", g)
						g.mat = nil
						checkDataflowEdges(t, name+"-phantom", g)
					}
				}
			}
		}
	}
}

func checkDataflowEdges(t *testing.T, name string, g *graph) {
	t.Helper()
	implied := make([][]int, g.numTasks)
	var buf []int
	for id := 0; id < g.numTasks; id++ {
		buf = g.Successors(id, buf[:0])
		for _, succ := range buf {
			implied[succ] = append(implied[succ], id)
		}
	}
	lastWriter := map[runtime.DataID]int{}
	readers := map[runtime.DataID][]int{}
	var s runtime.TaskSpec
	visit := func(id int) {
		g.Spec(id, &s)
		deps := map[int]bool{}
		for _, in := range s.Inputs {
			if w, ok := lastWriter[in.Data]; ok {
				deps[w] = true
			}
			readers[in.Data] = append(readers[in.Data], id)
		}
		out := s.Output.Data
		if w, ok := lastWriter[out]; ok {
			deps[w] = true
		}
		for _, r := range readers[out] {
			deps[r] = true
		}
		delete(deps, id)
		lastWriter[out], readers[out] = id, nil
		want := make([]int, 0, len(deps))
		for p := range deps {
			want = append(want, p)
		}
		sort.Ints(want)
		if !slices.Equal(implied[id], want) || g.NumPredecessors(id) != len(want) {
			t.Fatalf("%s: %s: Successors imply predecessors %v, NumPredecessors %d; dataflow infers %v",
				name, g.name(id), implied[id], g.NumPredecessors(id), want)
		}
	}
	for k := 0; k < g.nt; k++ {
		visit(g.potrf(k))
		for m := k + 1; m < g.nt; m++ {
			visit(g.trsm(m, k))
		}
		for m := k + 1; m < g.nt; m++ {
			visit(g.syrk(m, k))
		}
		for m := k + 2; m < g.nt; m++ {
			for n := k + 1; n < m; n++ {
				visit(g.gemm(m, n, k))
			}
		}
	}
}

// buildTestGraph assembles a numeric (or phantom if mat nil explicitly
// requested) graph over a jittered-grid sqexp covariance.
func buildTestGraph(t *testing.T, nt int, ureq float64, kernelOverride [][]prec.Precision, strat Strategy, ranks, devPerRank int) *graph {
	t.Helper()
	ts := 16
	n := nt * ts
	rng := stats.NewRNG(42, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	kfn := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.05}
	p, q := tile.SquarestGrid(ranks)
	d, err := tile.NewDesc(n, ts, p, q)
	if err != nil {
		t.Fatal(err)
	}
	mat := tile.NewMatrix(d, false)
	mat.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, kfn, theta, 1e-8, tl.Data, tl.N)
	})
	kernel := kernelOverride
	if kernel == nil {
		kernel = precmap.FromMatrix(mat, ureq, prec.CholeskySet)
	}
	maps := precmap.New(kernel, ureq)
	plat, err := runtime.NewPlatform(hw.SummitNode, ranks, devPerRank)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGraph(Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runConfig builds and runs a full numeric factorization, returning the
// matrix, the dense FP64 reference factor, and the result.
func runNumeric(t *testing.T, nt int, ureq float64, kernel [][]prec.Precision, strat Strategy, ranks, devPerRank int) (*tile.Matrix, []float64, *Result) {
	t.Helper()
	ts := 16
	n := nt * ts
	rng := stats.NewRNG(42, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	kfn := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.05}
	p, q := tile.SquarestGrid(ranks)
	d, err := tile.NewDesc(n, ts, p, q)
	if err != nil {
		t.Fatal(err)
	}
	mat := tile.NewMatrix(d, false)
	mat.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, kfn, theta, 1e-8, tl.Data, tl.N)
	})
	dense := mat.ToDense()
	if err := linalg.PotrfLower(n, dense, n); err != nil {
		t.Fatal(err)
	}
	km := kernel
	if km == nil {
		km = precmap.FromMatrix(mat, ureq, prec.CholeskySet)
	}
	maps := precmap.New(km, ureq)
	plat, err := runtime.NewPlatform(hw.SummitNode, ranks, devPerRank)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	return mat, dense, res
}

func TestNumericFP64MatchesDense(t *testing.T) {
	nt := 5
	mat, dense, res := runNumeric(t, nt, 0, precmap.UniformAll(nt, prec.FP64), Auto, 1, 1)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	n := mat.N
	got := mat.LowerToDense()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if d := math.Abs(got[i*n+j] - dense[i*n+j]); d > 1e-11 {
				t.Fatalf("L(%d,%d) = %g, dense ref %g (diff %g)", i, j, got[i*n+j], dense[i*n+j], d)
			}
		}
	}
}

// lowerRelError compares two factors over the lower triangle only (dense
// POTRF leaves the original upper triangle untouched).
func lowerRelError(n int, got, ref []float64) float64 {
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := got[i*n+j] - ref[i*n+j]
			num += d * d
			den += ref[i*n+j] * ref[i*n+j]
		}
	}
	return math.Sqrt(num / den)
}

func TestNumericMPCloseToFP64(t *testing.T) {
	// Adaptive map at u_req=1e-6: the factor must match FP64 loosely, and
	// the reconstruction L·Lᵀ must be within a tolerance tied to u_req.
	nt := 6
	mat, dense, res := runNumeric(t, nt, 1e-6, nil, Auto, 1, 1)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rel := lowerRelError(mat.N, mat.LowerToDense(), dense)
	if rel > 1e-3 {
		t.Errorf("MP factor relative error %g too large", rel)
	}
	if rel == 0 {
		t.Error("MP factor identical to FP64 — reduced precision never engaged?")
	}
}

func TestMPUsesReducedPrecisionTiles(t *testing.T) {
	g := buildTestGraph(t, 8, 1e-4, nil, Auto, 1, 1)
	counts := precmap.New(g.maps.Kernel, 1e-4).Counts()
	if counts[prec.FP16]+counts[prec.FP16x32]+counts[prec.FP32] == 0 {
		t.Fatal("test covariance produced no reduced-precision tiles; weak test")
	}
}

func TestSTCBeatsTTC(t *testing.T) {
	// Under the FP64/FP16 extreme, STC must move fewer H2D bytes and finish
	// no later than TTC (Fig 8's claim). Phantom mode at a realistic size
	// where the working set exceeds V100 memory — the regime where the
	// conversion strategy matters.
	nt, ts := 48, 2048
	d, err := tile.NewDesc(nt*ts, ts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	maps := precmap.New(precmap.Uniform(nt, prec.FP16), 1e-2)
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Strategy) *Result {
		r, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	stc, ttc := run(Auto), run(ForceTTC)
	// In the cached single-GPU regime bytes tie; STC must never move more.
	if stc.Stats.BytesH2D > ttc.Stats.BytesH2D {
		t.Errorf("STC H2D bytes %d above TTC %d", stc.Stats.BytesH2D, ttc.Stats.BytesH2D)
	}
	// The single-GPU gap comes from eliminating per-consumer conversion
	// kernels: TTC must be strictly slower.
	if stc.Stats.Makespan >= ttc.Stats.Makespan {
		t.Errorf("STC makespan %g not below TTC %g", stc.Stats.Makespan, ttc.Stats.Makespan)
	}
	if stc.STCTasks == 0 {
		t.Error("no STC tasks under all-FP16 map")
	}
	if ttc.STCTasks != 0 {
		t.Error("ForceTTC reported STC tasks")
	}
	// TTC pays per-consumer conversions; STC converts at the sender.
	if stc.Stats.SenderConversions == 0 {
		t.Error("STC made no sender conversions")
	}
	if ttc.Stats.ReceiverConversions <= stc.Stats.ReceiverConversions {
		t.Errorf("TTC receiver conversions %d not above STC %d",
			ttc.Stats.ReceiverConversions, stc.Stats.ReceiverConversions)
	}
}

func TestSTCReducesNetworkAndH2DAcrossRanks(t *testing.T) {
	// On a multi-rank platform the wire format governs network and H2D
	// volume: STC must move strictly fewer bytes (§VI's data-motion claim).
	nt, ts := 24, 2048
	d, err := tile.NewDesc(nt*ts, ts, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	maps := precmap.New(precmap.Uniform(nt, prec.FP16), 1e-2)
	plat, err := runtime.NewPlatform(hw.SummitNode, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Strategy) *Result {
		r, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	stc, ttc := run(Auto), run(ForceTTC)
	if stc.Stats.BytesNet >= ttc.Stats.BytesNet {
		t.Errorf("STC network bytes %d not below TTC %d", stc.Stats.BytesNet, ttc.Stats.BytesNet)
	}
	if stc.Stats.BytesH2D >= ttc.Stats.BytesH2D {
		t.Errorf("STC H2D bytes %d not below TTC %d", stc.Stats.BytesH2D, ttc.Stats.BytesH2D)
	}
	if stc.Stats.Makespan >= ttc.Stats.Makespan {
		t.Errorf("STC makespan %g not below TTC %g", stc.Stats.Makespan, ttc.Stats.Makespan)
	}
}

func TestNumericSameResultAcrossStrategiesOneDevice(t *testing.T) {
	// On one device no consumer ever reads a wire copy, so STC and TTC
	// must produce bit-identical factors.
	nt := 5
	kernel := precmap.Uniform(nt, prec.FP16x32)
	m1, _, r1 := runNumeric(t, nt, 1e-3, kernel, Auto, 1, 1)
	m2, _, r2 := runNumeric(t, nt, 1e-3, kernel, ForceTTC, 1, 1)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	a, b := m1.LowerToDense(), m2.LowerToDense()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("factor differs at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestMultiRankNumeric(t *testing.T) {
	// 2 ranks × 2 devices: result must still be a valid factorization and
	// network traffic must appear.
	nt := 6
	mat, dense, res := runNumeric(t, nt, 1e-6, nil, Auto, 2, 2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.BytesNet == 0 {
		t.Error("multi-rank run produced no network traffic")
	}
	if rel := lowerRelError(mat.N, mat.LowerToDense(), dense); rel > 1e-3 {
		t.Errorf("multi-rank MP factor error %g", rel)
	}
}

func TestPhantomMatchesNumericCosts(t *testing.T) {
	// Phantom mode must produce the same virtual-time statistics as the
	// numeric run (bodies do not influence the simulation).
	nt := 6
	ts := 16
	n := nt * ts
	rng := stats.NewRNG(42, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	kfn := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.05}
	d, _ := tile.NewDesc(n, ts, 1, 1)
	mat := tile.NewMatrix(d, false)
	mat.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, kfn, theta, 1e-8, tl.Data, tl.N)
	})
	maps := precmap.New(precmap.FromMatrix(mat, 1e-6, prec.CholeskySet), 1e-6)
	plat, _ := runtime.NewPlatform(hw.SummitNode, 1, 1)

	num, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Matrix: nil, Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if num.Stats.Makespan != ph.Stats.Makespan {
		t.Errorf("phantom makespan %g != numeric %g", ph.Stats.Makespan, num.Stats.Makespan)
	}
	if num.Stats.BytesH2D != ph.Stats.BytesH2D || num.Stats.Energy != ph.Stats.Energy {
		t.Error("phantom data motion/energy differ from numeric")
	}
	if ph.Err != nil {
		t.Error("phantom mode reported a numeric error")
	}
}

func TestNonSPDReportsError(t *testing.T) {
	nt := 3
	ts := 8
	n := nt * ts
	d, _ := tile.NewDesc(n, ts, 1, 1)
	mat := tile.NewMatrix(d, false)
	// An indefinite matrix: identity with one negative diagonal entry.
	mat.Fill(func(tl *tile.Tile, r0, c0 int) {
		for i := 0; i < tl.M; i++ {
			for j := 0; j < tl.N; j++ {
				if r0+i == c0+j {
					tl.Data[i*tl.N+j] = 1
				}
			}
		}
	})
	mat.At(1, 1).Data[0] = -5
	maps := precmap.New(precmap.UniformAll(nt, prec.FP64), 0)
	plat, _ := runtime.NewPlatform(hw.SummitNode, 1, 1)
	res, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Error("indefinite matrix factored without error")
	}
}

func TestFlopAccounting(t *testing.T) {
	nt := 5
	_, _, res := runNumeric(t, nt, 0, precmap.UniformAll(nt, prec.FP64), Auto, 1, 1)
	n := float64(nt * 16)
	want := n * n * n / 3
	got := res.Stats.TotalFlops
	// Tile-level counts approximate N³/3 to O(N²·TS).
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("total flops %g too far from N³/3 = %g", got, want)
	}
	if TheoreticalFlops(nt*16) != want {
		t.Error("TheoreticalFlops mismatch")
	}
}

func TestDeterministicRuns(t *testing.T) {
	nt := 6
	_, _, r1 := runNumeric(t, nt, 1e-6, nil, Auto, 2, 2)
	_, _, r2 := runNumeric(t, nt, 1e-6, nil, Auto, 2, 2)
	if r1.Stats.Makespan != r2.Stats.Makespan || r1.Stats.Energy != r2.Stats.Energy ||
		r1.Stats.BytesH2D != r2.Stats.BytesH2D || r1.Stats.BytesNet != r2.Stats.BytesNet {
		t.Error("repeated runs differ")
	}
}

func TestConfigValidation(t *testing.T) {
	plat, _ := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if _, err := Run(Config{Platform: nil}); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := Run(Config{Platform: plat, Maps: nil}); err == nil {
		t.Error("nil maps accepted")
	}
	d, _ := tile.NewDesc(64, 16, 1, 1)
	maps := precmap.New(precmap.UniformAll(3, prec.FP64), 0) // NT mismatch
	if _, err := Run(Config{Platform: plat, Maps: maps, Desc: d}); err == nil {
		t.Error("NT mismatch accepted")
	}
}

// TestNumericRunRejectsUnexecutable: a numeric run whose maps or matrix the
// bodies cannot execute fails in Run before anything runs — the matrix keeps
// its bits, so no body started and no tile was rounded — while the same
// maps still run in phantom mode.
func TestNumericRunRejectsUnexecutable(t *testing.T) {
	const nt, ts = 4, 16
	d, _ := tile.NewDesc(nt*ts, ts, 1, 1)
	other, _ := tile.NewDesc(nt*(ts-1), ts-1, 1, 1) // same NT, narrower tiles
	plat, _ := runtime.NewPlatform(hw.SummitNode, 1, 1)
	locs := geo.GenerateLocations(nt*ts, 2, stats.NewRNG(7, 0))
	covariance := func(d tile.Desc) *tile.Matrix {
		mat := tile.NewMatrix(d, false)
		mat.Fill(func(tl *tile.Tile, r0, c0 int) {
			geo.CovTile(locs, r0, c0, tl.M, tl.N, geo.SqExp{Dimension: 2}, []float64{1, 0.05}, 1, tl.Data, tl.N)
		})
		return mat
	}
	fp16At11 := precmap.UniformAll(nt, prec.FP64)
	fp16At11[1][1] = prec.FP16
	for _, c := range []struct {
		name   string
		kernel [][]prec.Precision
		mat    *tile.Matrix
	}{
		{"fp32-diagonal", precmap.UniformAll(nt, prec.FP32), covariance(d)},
		{"fp16-tile-1-1", fp16At11, covariance(d)},
		{"other-tile-size", precmap.UniformAll(nt, prec.FP64), covariance(other)},
	} {
		maps := precmap.New(c.kernel, 0)
		before := c.mat.LowerToDense()
		if _, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Matrix: c.mat}); err == nil {
			t.Errorf("%s: numeric run accepted", c.name)
		}
		if !slices.Equal(before, c.mat.LowerToDense()) {
			t.Errorf("%s: the rejected run changed the matrix", c.name)
		}
		if _, err := Run(Config{Desc: d, Maps: maps, Platform: plat}); err != nil {
			t.Errorf("%s: phantom run: %v", c.name, err)
		}
	}
}

func TestLabeledSchedule(t *testing.T) {
	nt := 4
	d, _ := tile.NewDesc(nt*16, 16, 1, 1)
	maps := precmap.New(precmap.UniformAll(nt, prec.FP64), 0)
	plat, _ := runtime.NewPlatform(hw.SummitNode, 1, 2)
	res, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Options: runtime.Options{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	sched := res.Stats.Trace.Tasks
	want := nt + nt*(nt-1) + nt*(nt-1)*(nt-2)/6
	if len(sched) != want {
		t.Fatalf("schedule has %d entries, want %d tasks", len(sched), want)
	}
	if name := res.TaskName(sched[0].ID); name != "POTRF(0)" {
		t.Errorf("first committed task %s, want POTRF(0)", name)
	}
	if name := res.TaskName(sched[len(sched)-1].ID); name != fmt.Sprintf("POTRF(%d)", nt-1) {
		t.Errorf("last committed task %s, want POTRF(%d)", name, nt-1)
	}
	// Dependency sanity in the timeline: TRSM(1,0) cannot start before
	// POTRF(0) ends.
	times := map[string][2]float64{}
	for _, s := range sched {
		times[res.TaskName(s.ID)] = [2]float64{s.Start, s.End}
	}
	if times["TRSM(1,0)"][0] < times["POTRF(0)"][1] {
		t.Error("TRSM(1,0) started before POTRF(0) finished")
	}
	if times["GEMM(2,1,0)"][0] < times["TRSM(2,0)"][1] {
		t.Error("GEMM(2,1,0) started before TRSM(2,0) finished")
	}
}

func TestLoadBalanceAcrossDevices(t *testing.T) {
	// 2D block-cyclic + owner-computes must spread work roughly evenly
	// across a node's GPUs.
	nt, ts := 24, 512
	d, _ := tile.NewDesc(nt*ts, ts, 1, 1)
	maps := precmap.New(precmap.UniformAll(nt, prec.FP64), 0)
	plat, _ := runtime.NewPlatform(hw.SummitNode, 1, 6)
	res, err := Run(Config{Desc: d, Maps: maps, Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	var minF, maxF float64 = math.Inf(1), 0
	for _, ds := range res.Stats.Devices {
		if ds.Flops < minF {
			minF = ds.Flops
		}
		if ds.Flops > maxF {
			maxF = ds.Flops
		}
	}
	if maxF > 2.5*minF {
		t.Errorf("flop imbalance across GPUs: min %g, max %g", minF, maxF)
	}
}

func TestPTGValidates(t *testing.T) {
	// The algebraic graph must pass the engine's structural checks at
	// several tilings: a phantom run completes every task, so in-degrees
	// match the successor lists and there is no cycle.
	plat, _ := runtime.NewPlatform(hw.SummitNode, 1, 1)
	for _, nt := range []int{1, 2, 5, 12} {
		d, _ := tile.NewDesc(nt*16, 16, 1, 1)
		cfg := Config{Desc: d, Maps: precmap.New(precmap.UniformAll(nt, prec.FP64), 0), Platform: plat}
		g, err := newGraph(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("nt=%d: %v", nt, err)
		}
		if res.Stats.Tasks != g.NumTasks() {
			t.Errorf("nt=%d: ran %d of %d tasks", nt, res.Stats.Tasks, g.NumTasks())
		}
	}
}

func TestStrategyString(t *testing.T) {
	if s := Auto.String(); s != "STC" {
		t.Errorf("Auto.String() = %q, want STC", s)
	}
	if s := ForceTTC.String(); s != "TTC" {
		t.Errorf("ForceTTC.String() = %q, want TTC", s)
	}
}
