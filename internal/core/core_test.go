package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

func TestGenerateDataset(t *testing.T) {
	ds, err := GenerateDataset(100, 2, SqExp2D(), []float64{1, 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Locs) != 100 || len(ds.Z) != 100 {
		t.Fatalf("dataset sizes wrong: %d locs, %d obs", len(ds.Locs), len(ds.Z))
	}
	// Reproducibility.
	ds2, err := GenerateDataset(100, 2, SqExp2D(), []float64{1, 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Z {
		if ds.Z[i] != ds2.Z[i] {
			t.Fatal("same seed produced different data")
		}
	}
	// Wrong parameter count.
	if _, err := GenerateDataset(10, 2, Matern2D(), []float64{1, 0.1}, 1); err == nil {
		t.Error("Matern with 2 params accepted")
	}
}

// TestGenerateDatasetRejectsBadShape: a location count below one or a
// dimension other than 2 or 3 is an error, not a panic inside the location
// generator; so is a dimension other than the kernel's.
func TestGenerateDatasetRejectsBadShape(t *testing.T) {
	for _, c := range []struct {
		n, dim  int
		errWant string
	}{
		{0, 2, "n=0"},
		{-3, 2, "n=-3"},
		{-3, 3, "n=-3"},
		{10, 1, "dimension 1"},
		{10, 4, "dimension 4"},
		{10, 0, "dimension 0"},
		{10, 3, "dimension 3 does not match kernel 2D-sqexp's dimension 2"},
	} {
		ds, err := GenerateDataset(c.n, c.dim, SqExp2D(), []float64{1, 0.1}, 1)
		if err == nil || !strings.Contains(err.Error(), c.errWant) {
			t.Errorf("GenerateDataset(n=%d, dim=%d) = %v, %v; want an error naming %q", c.n, c.dim, ds, err, c.errWant)
		}
	}
}

func TestFitEndToEnd(t *testing.T) {
	ds, err := GenerateDataset(144, 2, SqExp2D(), []float64{1, 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fit(ds, Options{UReq: 1e-9, TileSize: 36, MaxEvals: 300})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Theta[1]-0.1) > 0.1 {
		t.Errorf("beta estimate %g far from 0.1", rep.Theta[1])
	}
	if rep.Time <= 0 || rep.Energy <= 0 || rep.Evaluations == 0 {
		t.Errorf("missing execution accounting: %+v", rep)
	}
	if len(rep.ParamNames) != 2 || rep.ParamNames[0] != "sigma2" {
		t.Errorf("param names wrong: %v", rep.ParamNames)
	}
}

// TestFitWithNoFiniteEvaluationFails: a 1600-point 2D-sqexp field at tile
// 64 and nugget 1e-8 gives +Inf at every θ a six-evaluation fit reaches at
// u_req 1e-4 and 1e-9. Fit must report that, not the lower bounds; in exact
// FP64 the same fit is finite.
func TestFitWithNoFiniteEvaluationFails(t *testing.T) {
	ds, err := GenerateDataset(1600, 2, SqExp2D(), []float64{1, 0.03}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, ureq := range []float64{1e-4, 1e-9, 0} {
		rep, err := Fit(ds, Options{UReq: ureq, TileSize: 64, Nugget: 1e-8, MaxEvals: 6})
		switch {
		case ureq == 0 && err != nil:
			t.Errorf("exact FP64: %v", err)
		case ureq > 0 && (!errors.Is(err, ErrNoFiniteEvaluation) || rep != nil):
			t.Errorf("u_req %g: report %+v, error %v; want ErrNoFiniteEvaluation", ureq, rep, err)
		}
	}
}

// TestRejectsUnusableUReq: a NaN, infinite or negative accuracy is an error
// from both Fit and ProjectFactorization, not an exact FP64 run.
func TestRejectsUnusableUReq(t *testing.T) {
	ds, err := GenerateDataset(50, 2, SqExp2D(), []float64{1, 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ureq := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-4} {
		opts := Options{UReq: ureq, TileSize: 16, MaxEvals: 2}
		if rep, err := Fit(ds, opts); err == nil || !strings.Contains(err.Error(), "u_req") {
			t.Errorf("Fit at u_req %g: report %+v, error %v; want a u_req error", ureq, rep, err)
		}
		if proj, err := ProjectFactorization(4096, SqExp2D(), []float64{1, 0.1}, opts, 1); err == nil || !strings.Contains(err.Error(), "u_req") {
			t.Errorf("ProjectFactorization at u_req %g: %+v, error %v; want a u_req error", ureq, proj, err)
		}
	}
}

// TestFitAndPredictRejectBadKernel: a dataset without a kernel, or a θ
// shorter than the kernel's parameter list, is an error, not a nil
// dereference in the bounds or an index panic inside the covariance.
func TestFitAndPredictRejectBadKernel(t *testing.T) {
	ds, err := GenerateDataset(64, 2, SqExp2D(), []float64{1, 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	noKernel := &Dataset{Locs: ds.Locs, Z: ds.Z}
	if rep, err := Fit(noKernel, Options{MaxEvals: 5}); err == nil || !strings.Contains(err.Error(), "nil kernel") {
		t.Errorf("Fit without a kernel: report %+v, error %v; want a nil-kernel error", rep, err)
	}
	if got, err := Predict(noKernel, []float64{1, 0.1}, ds.Locs[:1], Options{}); err == nil || !strings.Contains(err.Error(), "nil kernel") {
		t.Errorf("Predict without a kernel: %v, error %v; want a nil-kernel error", got, err)
	}
	if got, err := Predict(ds, []float64{1}, ds.Locs[:1], Options{}); err == nil || !strings.Contains(err.Error(), "needs 2 parameters, got 1") {
		t.Errorf("Predict with a short θ: %v, error %v; want a parameter-count error", got, err)
	}
}

func TestPredictEndToEnd(t *testing.T) {
	ds, err := GenerateDataset(100, 2, SqExp2D(), []float64{1, 0.2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Predict(ds, []float64{1, 0.2}, []geo.Point{ds.Locs[7]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-ds.Z[7]) > 1e-3 {
		t.Errorf("prediction at observed point %g, want %g", got[0], ds.Z[7])
	}
}

func TestProjectFactorization(t *testing.T) {
	proj, err := ProjectFactorization(16384, SqExp2D(), []float64{1, 0.03}, Options{
		UReq: 1e-4, TileSize: 1024, Machine: OneV100(),
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Time <= 0 || proj.Gflops <= 0 || proj.Energy <= 0 {
		t.Errorf("empty projection: %+v", proj)
	}
	if proj.TilesByPrec[prec.FP64] == 0 {
		t.Error("no FP64 tiles (diagonal must be FP64)")
	}
	// The MP run must beat pure FP64 on the same machine.
	fp64, err := ProjectFactorization(16384, SqExp2D(), []float64{1, 0.03}, Options{
		TileSize: 1024, Machine: OneV100(),
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Time >= fp64.Time {
		t.Errorf("MP time %g not below FP64 %g", proj.Time, fp64.Time)
	}
	if proj.Energy >= fp64.Energy {
		t.Errorf("MP energy %g not below FP64 %g", proj.Energy, fp64.Energy)
	}
}

// TestProjectFactorizationPinned pins one mixed-precision projection on
// two Summit nodes: the sampled precision map (drawn from RNG stream 1 of
// the seed), the conversion decisions it implies, the data motion and the
// bits of the simulated time.
func TestProjectFactorizationPinned(t *testing.T) {
	p, err := ProjectFactorization(16384, SqExp2D(), []float64{1, 0.03}, Options{UReq: 1e-4, Machine: Summit(2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTiles := map[prec.Precision]int{prec.FP64: 8, prec.FP32: 6, prec.FP16x32: 8, prec.FP16: 14}
	if !reflect.DeepEqual(p.TilesByPrec, wantTiles) {
		t.Errorf("tiles by precision %v, want %v", p.TilesByPrec, wantTiles)
	}
	if p.STCTasks != 7 || p.CommTasks != 35 {
		t.Errorf("STC %d of %d communicating tasks, want 7 of 35", p.STCTasks, p.CommTasks)
	}
	if p.BytesH2D != 3472883712 || p.BytesNet != 469762048 {
		t.Errorf("bytes h2d %d net %d, want 3472883712 and 469762048", p.BytesH2D, p.BytesNet)
	}
	if bits := math.Float64bits(p.Time); bits != 0x3fa8ef004a3e3332 {
		t.Errorf("time bits %#x, want 0x3fa8ef004a3e3332", bits)
	}
}

// TestProjectScalePinned pins one projection at the benchmark's scale:
// the 2D-Matérn application at u_req 1e-9, N = 262,144 in 2048-tiles
// (NT 128, 357,760 tasks) on 16 Summit nodes. Unlike the NT-8 pins it runs
// broadcast scans longer than the 4×4 process grid, evicts from the
// V100s' 16 GB (with writebacks) and samples its map over Morton-tied
// locations. The same run through cholesky.Run pins the schedule digest
// and the eviction counts ProjectFactorization does not report.
func TestProjectScalePinned(t *testing.T) {
	theta := []float64{1, 0.1, 0.5}
	opts := Options{UReq: 1e-9, TileSize: 2048, Machine: Summit(16), Nugget: 1e-8}
	p, err := ProjectFactorization(262144, Matern2D(), theta, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTiles := map[prec.Precision]int{prec.FP64: 5804, prec.FP32: 2452}
	if !reflect.DeepEqual(p.TilesByPrec, wantTiles) {
		t.Errorf("tiles by precision %v, want %v", p.TilesByPrec, wantTiles)
	}
	if p.STCTasks != 0 || p.CommTasks != 8255 {
		t.Errorf("STC %d of %d communicating tasks, want 0 of 8255", p.STCTasks, p.CommTasks)
	}
	if p.BytesH2D != 13292739231744 || p.BytesNet != 1371403190272 {
		t.Errorf("bytes h2d %d net %d, want 13292739231744 and 1371403190272", p.BytesH2D, p.BytesNet)
	}
	if bits := math.Float64bits(p.Time); bits != 0x40225f0ef34f0c0a {
		t.Errorf("time bits %#x, want 0x40225f0ef34f0c0a", bits)
	}
	if bits := math.Float64bits(p.Energy); bits != 0x410be51d7552ef15 {
		t.Errorf("energy bits %#x, want 0x410be51d7552ef15", bits)
	}

	plat, err := opts.Machine.Platform()
	if err != nil {
		t.Fatal(err)
	}
	pg, qg := tile.SquarestGrid(plat.Ranks)
	desc, err := tile.NewDesc(262144, 2048, pg, qg)
	if err != nil {
		t.Fatal(err)
	}
	km := precmap.Sampled(desc, Matern2D(), theta, 1e-8, 1e-9, 128, stats.NewRNG(1, 1))
	res, err := cholesky.Run(cholesky.Config{Desc: desc, Maps: precmap.New(km, 0), Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	evictions, writebacks := 0, 0
	for _, d := range res.Stats.Devices {
		evictions += d.Evictions
		writebacks += d.Writebacks
	}
	if evictions != 435197 || writebacks != 6 {
		t.Errorf("%d evictions, %d writebacks, want 435197 and 6", evictions, writebacks)
	}
	if res.Stats.Tasks != 357760 || res.Stats.BytesD2H != 236055429120 || res.Stats.ReceiverConversions != 255763 {
		t.Errorf("%d tasks, %d bytes d2h, %d receiver conversions, want 357760, 236055429120 and 255763",
			res.Stats.Tasks, res.Stats.BytesD2H, res.Stats.ReceiverConversions)
	}
	if math.Float64bits(res.Stats.Makespan) != math.Float64bits(p.Time) {
		t.Errorf("cholesky.Run makespan %g, ProjectFactorization %g", res.Stats.Makespan, p.Time)
	}
	if d := res.Digest(); d != 0xe001682a474a8d1f {
		t.Errorf("schedule digest %#x, want 0xe001682a474a8d1f", d)
	}
}

func TestMachines(t *testing.T) {
	for _, m := range []Machine{OneV100(), OneA100(), OneH100(), Summit(4)} {
		p, err := m.Platform()
		if err != nil {
			t.Fatal(err)
		}
		if p.NumDevices() == 0 {
			t.Error("platform with no devices")
		}
	}
	if p, _ := Summit(64).Platform(); p.NumDevices() != 384 {
		t.Error("Summit(64) is not 384 GPUs")
	}
	// The zero Machine, Options' default, is one Summit node with all six
	// of its V100s.
	var m Machine
	p, err := m.Platform()
	if err != nil {
		t.Fatalf("zero machine rejected: %v", err)
	}
	if p.Ranks != 1 || p.DevPerRank != 6 || p.Node.GPU != hw.V100 {
		t.Errorf("zero machine is %d rank(s) × %d %s, want 1 × 6 V100", p.Ranks, p.DevPerRank, p.Node.GPU.Name)
	}
}

func TestForceTTCSlower(t *testing.T) {
	base := Options{UReq: 1e-2, TileSize: 2048, Machine: OneV100()}
	stc, err := ProjectFactorization(32768, SqExp2D(), []float64{1, 0.01}, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	ttcOpts := base
	ttcOpts.ForceTTC = true
	ttc, err := ProjectFactorization(32768, SqExp2D(), []float64{1, 0.01}, ttcOpts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stc.Time > ttc.Time {
		t.Errorf("auto strategy %g slower than forced TTC %g", stc.Time, ttc.Time)
	}
}
