package cholesky

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// stcScenario is a numeric graph on one device per rank (two ranks in a
// 1×2 grid, or one) whose off-diagonal tiles run their GEMMs in FP16_32 and
// travel in binary16 (STC): a covariance with a unit nugget, so the
// factorization survives the half-precision wire.
func stcScenario(t *testing.T, nt, ranks int) *graph {
	t.Helper()
	const ts = 16
	locs := geo.GenerateLocations(nt*ts, 2, stats.NewRNG(42, 0))
	d, err := tile.NewDesc(nt*ts, ts, 1, ranks)
	if err != nil {
		t.Fatal(err)
	}
	mat := tile.NewMatrix(d, false)
	mat.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, geo.SqExp{Dimension: 2}, []float64{1, 0.05}, 1, tl.Data, tl.N)
	})
	maps := precmap.New(precmap.Uniform(nt, prec.FP16x32), 1e-3)
	plat, err := runtime.NewPlatform(hw.SummitNode, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGraph(Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func factorDigest(m *tile.Matrix) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, m.LowerToDense())
	return h.Sum64()
}

// stcFactorDigest is the factor of the scenario below as Run left it at
// commit 779e4ee, when every GEMM converted and packed its own operands.
const stcFactorDigest = 0x7f73db9204836dd1

// TestOperandCacheSTC runs a numeric factorization on two ranks with
// sender-side conversion, so consumers on the producer's rank read a tile's
// storage copy and the others its down-cast wire copy: two views, two
// operands. Each (tile, view, kernel precision) some GEMM or SYRK reads must be
// converted exactly once — the slot's sync.Once admits one build, so the
// count of built slots against the set the graph asks for is the proof —
// with the factor bit-identical to the per-call packing of the parent
// commit, and every operand's buffers released when the run ends. Under
// -race this is also the check that concurrent bodies share a slot safely.
func TestOperandCacheSTC(t *testing.T) {
	const nt = 6
	g := stcScenario(t, nt, 2)
	if stc, _ := g.maps.STCCount(); stc == 0 {
		t.Fatal("scenario has no STC edge: local and wire views would coincide")
	}
	cfg := Config{Desc: g.desc, Maps: g.maps, Platform: g.plat, Matrix: g.mat, Strategy: Auto}
	_, bodyErr, err := runtime.Run(cfg.Platform, g, cfg.Options)
	if err != nil || bodyErr != nil {
		t.Fatal(err, bodyErr)
	}

	type key struct {
		i, j, wire int
		p          prec.Precision
	}
	want := map[key]bool{}
	views := [2]int{}
	// reads notes that a kernel of precision p on device dev reads tile (i,k).
	reads := func(i, k, dev int, p prec.Precision) {
		wire := 0
		if g.deviceOf(i, k) != dev && g.maps.Comm[i][k].Format() != g.maps.Storage[i][k].Format() {
			wire = 1
		}
		if !want[key{i, k, wire, p}] {
			want[key{i, k, wire, p}] = true
			views[wire]++
		}
	}
	for m := 1; m < nt; m++ {
		for k := 0; k < m; k++ {
			reads(m, k, g.deviceOf(m, m), g.maps.Syrk(m, k)) // SYRK(m,k)
		}
		for n := 1; n < m; n++ {
			for k := 0; k < n; k++ { // GEMM(m,n,k)
				reads(m, k, g.deviceOf(m, n), g.maps.Gemm(m, n, k))
				reads(n, k, g.deviceOf(m, n), g.maps.Gemm(m, n, k))
			}
		}
	}
	if views[0] == 0 || views[1] == 0 {
		t.Fatalf("scenario reads %d local and %d wire operands: want both", views[0], views[1])
	}
	for k := range want {
		if g.ops[((k.i*(k.i+1)/2+k.j)*2+k.wire)*prec.Count+int(k.p)].op == nil {
			t.Errorf("operand %+v is read by a GEMM or SYRK but was not built", k)
		}
	}
	built := 0
	for idx := range g.ops {
		if g.ops[idx].op != nil {
			built++
		}
	}
	if built != len(want) {
		t.Errorf("%d operands built, the graph's GEMMs and SYRKs read %d distinct (tile, view, precision)", built, len(want))
	}
	if got := factorDigest(g.mat); got != stcFactorDigest {
		t.Errorf("factor digest %#x, want %#x (per-call packing at the parent commit)", got, stcFactorDigest)
	}

	g.releaseOperands()
	for idx := range g.ops {
		if g.ops[idx].op != nil {
			t.Fatalf("slot %d still holds its operand after releaseOperands", idx)
		}
	}

	// The public entry: same factor, through Run.
	g2 := stcScenario(t, nt, 2)
	cfg.Matrix = g2.mat
	res, err := Run(cfg)
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	if got := factorDigest(g2.mat); got != stcFactorDigest {
		t.Errorf("Run: factor digest %#x, want %#x", got, stcFactorDigest)
	}
}

// oneDeviceFactorDigest is the factor of stcScenario(6, 1) as Run left it
// at commit 81e796c, which still rounded a wire copy of every STC tile.
const oneDeviceFactorDigest = 0x4ae5c57788460fd3

// TestOneDeviceNoWireCopy: on one device every consumer is local and reads
// the storage copy (view), so a run publishes no wire copy — g.wire stays
// empty — and leaves the factor it left when it rounded one per STC tile.
func TestOneDeviceNoWireCopy(t *testing.T) {
	g := stcScenario(t, 6, 1)
	if stc, _ := g.maps.STCCount(); stc == 0 {
		t.Fatal("scenario has no STC edge: there would be no wire copy to skip")
	}
	if _, bodyErr, err := runtime.Run(g.plat, g, runtime.Options{}); err != nil || bodyErr != nil {
		t.Fatal(err, bodyErr)
	}
	for idx, w := range g.wire {
		if w != nil {
			t.Fatalf("tile %d has a wire copy on a one-device platform", idx)
		}
	}
	if got := factorDigest(g.mat); got != oneDeviceFactorDigest {
		t.Errorf("factor digest %#x, want %#x", got, oneDeviceFactorDigest)
	}
}
