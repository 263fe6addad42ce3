package precmap

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/prec"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

func TestSelectPrecision(t *testing.T) {
	ladder := prec.CholeskySet
	// Huge ratio: nothing admissible below FP64.
	if got := SelectPrecision(1.0, 1e-9, ladder); got != prec.FP64 {
		t.Errorf("ratio 1, u_req 1e-9: %v, want FP64", got)
	}
	// Tiny ratio: everything admissible; lowest wins.
	if got := SelectPrecision(1e-12, 1e-4, ladder); got != prec.FP16 {
		t.Errorf("tiny ratio: %v, want FP16", got)
	}
	// Boundary: ratio just below u_req/eps(FP32) selects FP32 when FP16
	// family is excluded by its larger eps.
	ureq := 1e-9
	ratio := ureq / prec.FP32.Eps() * 0.99
	if got := SelectPrecision(ratio, ureq, ladder); got != prec.FP32 {
		t.Errorf("FP32 boundary: %v, want FP32", got)
	}
	// Just above the FP32 threshold falls back to FP64.
	ratio = ureq / prec.FP32.Eps() * 1.01
	if got := SelectPrecision(ratio, ureq, ladder); got != prec.FP64 {
		t.Errorf("above FP32 threshold: %v, want FP64", got)
	}
}

func TestSelectPrecisionMonotoneInUReq(t *testing.T) {
	// Looser accuracy must never select a higher precision.
	ladder := prec.CholeskySet
	for _, ratio := range []float64{1e-8, 1e-6, 1e-4, 1e-2, 1} {
		pTight := SelectPrecision(ratio, 1e-9, ladder)
		pLoose := SelectPrecision(ratio, 1e-4, ladder)
		if pLoose.Eps() < pTight.Eps() {
			t.Errorf("ratio %g: loose u_req chose higher precision %v than tight %v", ratio, pLoose, pTight)
		}
	}
}

// decayKernelMap builds a kernel map that mimics a decaying covariance:
// precision drops with distance from the diagonal.
func decayKernelMap(nt int) [][]prec.Precision {
	norm := func(i, j int) float64 {
		return math.Exp(-2 * float64(i-j))
	}
	return NewKernelMap(nt, norm, 1.0, 1e-4, prec.CholeskySet)
}

func TestNewKernelMapDiagonalPinned(t *testing.T) {
	k := decayKernelMap(8)
	for i := 0; i < 8; i++ {
		if k[i][i] != prec.FP64 {
			t.Errorf("diagonal tile (%d,%d) = %v, want FP64", i, i, k[i][i])
		}
	}
	// Monotone band structure: precision must not increase away from the
	// diagonal within a column for a decaying norm.
	for j := 0; j < 8; j++ {
		for i := j + 2; i < 8; i++ {
			if k[i][j].Eps() < k[i-1][j].Eps() {
				t.Errorf("precision increased away from diagonal at (%d,%d): %v after %v",
					i, j, k[i][j], k[i-1][j])
			}
		}
	}
}

func TestStorageMapRule(t *testing.T) {
	m := New(decayKernelMap(8), 1e-4)
	for i := 0; i < 8; i++ {
		for j := 0; j <= i; j++ {
			want := m.Kernel[i][j].StoragePrecision()
			if m.Storage[i][j] != want {
				t.Errorf("storage (%d,%d) = %v, want %v", i, j, m.Storage[i][j], want)
			}
		}
	}
}

func TestCommMapDiagonalRule(t *testing.T) {
	// Column with an FP64 off-diagonal successor → POTRF comm FP64 (TTC);
	// all-lower column → FP32 (STC).
	nt := 6
	kernel := Uniform(nt, prec.FP16x32) // off-diagonal all FP16_32
	kernel[1][0] = prec.FP64            // one FP64 TRSM below POTRF(0,0)
	m := New(kernel, 1e-9)
	if m.Comm[0][0] != prec.FP64 || m.STC(0, 0) {
		t.Errorf("POTRF(0,0): comm %v stc %v, want FP64/TTC", m.Comm[0][0], m.STC(0, 0))
	}
	// Column 1 has only FP16_32 TRSMs → comm FP32, STC.
	if m.Comm[1][1] != prec.FP32 || !m.STC(1, 1) {
		t.Errorf("POTRF(1,1): comm %v stc %v, want FP32/STC", m.Comm[1][1], m.STC(1, 1))
	}
	// Last diagonal has no successors.
	if m.Comm[nt-1][nt-1] != prec.FP64 || m.STC(nt-1, nt-1) {
		t.Errorf("final POTRF comm/STC wrong: %v %v", m.Comm[nt-1][nt-1], m.STC(nt-1, nt-1))
	}
}

func TestCommMapTrsmSTC(t *testing.T) {
	// All off-diagonal FP16: every TRSM's successors are FP16 GEMMs, so
	// comm = FP16 < storage FP32 → STC everywhere off-diagonal.
	nt := 6
	m := New(Uniform(nt, prec.FP16), 1e-2)
	for k := 0; k <= nt-2; k++ {
		for i := k + 1; i < nt; i++ {
			if m.Comm[i][k] != prec.FP16 {
				t.Errorf("comm(%d,%d) = %v, want FP16", i, k, m.Comm[i][k])
			}
			if !m.STC(i, k) {
				t.Errorf("STC(%d,%d) = false, want true", i, k)
			}
		}
	}
}

func TestCommMapTrsmTTCWhenSuccessorHigher(t *testing.T) {
	// Tile (2,0): successors include GEMM target (2,1) (row) and (n,2)
	// (column). Make (2,1) FP64 kernel: comm must clamp to storage (TTC).
	nt := 4
	kernel := Uniform(nt, prec.FP16)
	kernel[2][1] = prec.FP64
	m := New(kernel, 1e-2)
	// storage of (2,0) is FP32 (FP16-family kernel).
	if m.Comm[2][0] != prec.FP32 || m.STC(2, 0) {
		t.Errorf("comm(2,0) = %v stc=%v, want FP32/TTC", m.Comm[2][0], m.STC(2, 0))
	}
	// Tile (1,0): row targets: none (n from 1 to 0); column targets (2,1)=FP64,
	// (3,1)=FP16. First column check hits FP64 → clamp to storage FP32, TTC.
	if m.Comm[1][0] != prec.FP32 || m.STC(1, 0) {
		t.Errorf("comm(1,0) = %v stc=%v, want FP32/TTC", m.Comm[1][0], m.STC(1, 0))
	}
}

func TestCommNeverBelowSuccessorNeed(t *testing.T) {
	// Property: for every TRSM tile, comm precision is at least the highest
	// GEMM-successor kernel precision (capped by storage).
	m := New(decayKernelMap(10), 1e-4)
	nt := m.NT
	for k := 0; k <= nt-2; k++ {
		for i := k + 1; i < nt; i++ {
			need := prec.FP16
			for n := k + 1; n < i; n++ {
				need = prec.Higher(need, m.Kernel[i][n])
			}
			for n := i + 1; n < nt; n++ {
				need = prec.Higher(need, m.Kernel[n][i])
			}
			if need.Eps() < m.Storage[i][k].Eps() {
				need = m.Storage[i][k] // capped
			}
			if m.Comm[i][k].Eps() > need.Eps() {
				t.Errorf("comm(%d,%d) = %v below successor need %v", i, k, m.Comm[i][k], need)
			}
		}
	}
}

func TestCommNeverAboveStorage(t *testing.T) {
	m := New(decayKernelMap(12), 1e-4)
	for i := 0; i < m.NT; i++ {
		for j := 0; j <= i; j++ {
			if m.Comm[i][j].Eps() < m.Storage[i][j].Eps() {
				t.Errorf("comm(%d,%d) = %v exceeds storage %v", i, j, m.Comm[i][j], m.Storage[i][j])
			}
			if m.STC(i, j) != m.Comm[i][j].Lower(m.Storage[i][j]) {
				t.Errorf("STC flag inconsistent at (%d,%d)", i, j)
			}
		}
	}
}

func TestCountsAndFractions(t *testing.T) {
	nt := 8
	m := New(Uniform(nt, prec.FP16), 1e-2)
	c := m.Counts()
	if c[prec.FP64] != nt {
		t.Errorf("FP64 count %d, want %d (diagonal)", c[prec.FP64], nt)
	}
	if c[prec.FP16] != nt*(nt+1)/2-nt {
		t.Errorf("FP16 count %d", c[prec.FP16])
	}
	f := m.Fractions()
	var sum float64
	for _, v := range f {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %g", sum)
	}
}

func TestSTCCount(t *testing.T) {
	nt := 5
	m := New(Uniform(nt, prec.FP16), 1e-2)
	stc, total := m.STCCount()
	if total != nt*(nt+1)/2-1 {
		t.Errorf("total tasks %d, want %d", total, nt*(nt+1)/2-1)
	}
	if stc == 0 {
		t.Error("no STC tasks in all-FP16 map")
	}
}

func TestUniformAll(t *testing.T) {
	k := UniformAll(4, prec.FP32)
	for i := 0; i < 4; i++ {
		for j := 0; j <= i; j++ {
			if k[i][j] != prec.FP32 {
				t.Errorf("(%d,%d) = %v", i, j, k[i][j])
			}
		}
	}
}

// TestUReqZeroAndZeroNorm: u_req 0 is every tile FP64 from both map
// builders, and Sampled draws nothing from its RNG for it; a zero global
// norm (every entry's square underflowed) leaves every tile at the ladder's
// first entry, FP64.
func TestUReqZeroAndZeroNorm(t *testing.T) {
	fp64 := UniformAll(4, prec.FP64)
	d, _ := tile.NewDesc(64, 16, 1, 1)
	rng := stats.NewRNG(3, 0)
	if got := Sampled(d, geo.SqExp{Dimension: 2}, []float64{1, 0.1}, 0, 0, 8, rng); !reflect.DeepEqual(got, fp64) {
		t.Errorf("Sampled at u_req 0 = %v", got)
	}
	if got, want := rng.Float64(), stats.NewRNG(3, 0).Float64(); got != want {
		t.Errorf("Sampled at u_req 0 drew from its RNG: next value %v, want %v", got, want)
	}
	m := tile.NewMatrix(d, false)
	m.Fill(func(tl *tile.Tile, _, _ int) {
		for i := range tl.Data {
			tl.Data[i] = 1e-170 // squares to 0
		}
	})
	if got := FromMatrix(m, 0, prec.CholeskySet); !reflect.DeepEqual(got, fp64) {
		t.Errorf("FromMatrix at u_req 0 = %v", got)
	}
	if got := FromMatrix(m, 1e-4, prec.CholeskySet); !reflect.DeepEqual(got, fp64) {
		t.Errorf("FromMatrix at a zero global norm = %v", got)
	}
	for _, u := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-9} {
		if CheckUReq(u) == nil {
			t.Errorf("CheckUReq(%g) accepted", u)
		}
	}
	for _, u := range []float64{0, 1e-9, 1} {
		if err := CheckUReq(u); err != nil {
			t.Errorf("CheckUReq(%g): %v", u, err)
		}
	}
}

func TestFromMatrixMatchesEstimator(t *testing.T) {
	// The sampled estimator's kernel map must largely agree with the exact
	// map on a small matrix.
	rng := stats.NewRNG(1, 0)
	n, ts := 128, 16
	locs := geo.GenerateLocations(n, 2, rng)
	k := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.02}
	d, _ := tile.NewDesc(n, ts, 1, 1)
	m := tile.NewMatrix(d, false)
	m.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, k, theta, 1e-10, tl.Data, tl.N)
	})
	exact := FromMatrix(m, 1e-6, prec.CholeskySet)

	normFn, global := EstimateTileNorms(locs, d, k, theta, 1e-10, 64, stats.NewRNG(2, 0))
	est := NewKernelMap(d.NT, normFn, global, 1e-6, prec.CholeskySet)

	agree, total := 0, 0
	for i := 0; i < d.NT; i++ {
		for j := 0; j <= i; j++ {
			total++
			if exact[i][j] == est[i][j] {
				agree++
			}
		}
	}
	if float64(agree)/float64(total) < 0.8 {
		t.Errorf("sampled map agrees on only %d/%d tiles", agree, total)
	}
}

func TestEstimateTileNormsGlobalAccuracy(t *testing.T) {
	rng := stats.NewRNG(3, 0)
	n, ts := 96, 16
	locs := geo.GenerateLocations(n, 2, rng)
	k := geo.Matern{Dimension: 2}
	theta := []float64{1, 0.1, 0.5}
	d, _ := tile.NewDesc(n, ts, 1, 1)
	m := tile.NewMatrix(d, false)
	m.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, k, theta, 0, tl.Data, tl.N)
	})
	_, exactGlobal := m.TileNorms()
	// With samples ≥ tile area the estimator is exact.
	_, estGlobal := EstimateTileNorms(locs, d, k, theta, 0, ts*ts, stats.NewRNG(4, 0))
	if math.Abs(estGlobal-exactGlobal) > 1e-9*exactGlobal {
		t.Errorf("exact-path estimator global %g, want %g", estGlobal, exactGlobal)
	}
	// Sampled estimator within 25%.
	_, sampGlobal := EstimateTileNorms(locs, d, k, theta, 0, 32, stats.NewRNG(5, 0))
	if math.Abs(sampGlobal-exactGlobal) > 0.25*exactGlobal {
		t.Errorf("sampled global %g too far from exact %g", sampGlobal, exactGlobal)
	}
}

// TestEstimateTileNormsPinned: the estimator draws its sample positions in
// one fixed order and sums each tile in sample order, so its norms carry
// the same bits at any GOMAXPROCS — these, the serial estimator's. Tiles
// of 64×64 and 64×40 entries are sampled, the 40×40 corner summed exactly.
func TestEstimateTileNormsPinned(t *testing.T) {
	locs := geo.GenerateLocations(1000, 2, stats.NewRNG(7, 0))
	d, _ := tile.NewDesc(1000, 64, 1, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		norm, global := EstimateTileNorms(locs, d, geo.Matern{Dimension: 2}, []float64{1, 0.1, 0.5}, 1e-8, 2000, stats.NewRNG(8, 0))
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < d.NT; i++ {
			for j := 0; j <= i; j++ {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(norm(i, j)))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != 0x2f1a9f8258c3d4c0 || math.Float64bits(global) != 0x405ddfc0db173831 {
			t.Errorf("GOMAXPROCS %d: norms digest %#x, global bits %#x; want 0x2f1a9f8258c3d4c0 and 0x405ddfc0db173831",
				procs, got, math.Float64bits(global))
		}
	}
}

// TestTTCSendsStorage: TTC() is a copy whose tiles all travel at their
// storage precision, so no task converts at the sender; the maps it was
// taken from are untouched.
func TestTTCSendsStorage(t *testing.T) {
	m := New(Uniform(6, prec.FP16), 1e-2)
	ttc := m.TTC()
	if stc, total := ttc.STCCount(); stc != 0 || total == 0 {
		t.Errorf("TTC maps: %d of %d tasks convert at the sender, want 0", stc, total)
	}
	for i := 0; i < m.NT; i++ {
		for j := 0; j <= i; j++ {
			if ttc.Comm[i][j] != m.Storage[i][j] || ttc.Kernel[i][j] != m.Kernel[i][j] {
				t.Fatalf("TTC tile (%d,%d): comm %v kernel %v, want storage %v and kernel %v",
					i, j, ttc.Comm[i][j], ttc.Kernel[i][j], m.Storage[i][j], m.Kernel[i][j])
			}
		}
	}
	if stc, _ := m.STCCount(); stc == 0 {
		t.Error("TTC() changed the maps it copied")
	}
}
