package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/prec"
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
// generator.
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
	// Zero-value machine defaults to one Summit node's worth of GPUs.
	var m Machine
	if _, err := m.Platform(); err != nil {
		t.Errorf("zero machine rejected: %v", err)
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
