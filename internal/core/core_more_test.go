package core

import (
	"math"
	"testing"

	"geompc/internal/geo"
)

func TestFitMaternEndToEnd(t *testing.T) {
	truth := []float64{1.0, 0.1, 0.5}
	ds, err := GenerateDataset(196, 2, Matern2D(), truth, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fit(ds, Options{UReq: 1e-9, TileSize: 49, MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Theta) != 3 || rep.ParamNames[2] != "nu" {
		t.Fatalf("Matern fit malformed: %+v", rep)
	}
	// Smoothness is the best-identified Matérn parameter at small n.
	if math.Abs(rep.Theta[2]-0.5) > 0.3 {
		t.Errorf("nu estimate %g far from 0.5", rep.Theta[2])
	}
}

func TestProjectFactorizationValidation(t *testing.T) {
	if _, err := ProjectFactorization(0, SqExp2D(), []float64{1, 0.1}, Options{}, 1); err == nil {
		t.Error("n=0 accepted")
	}
	bad := Options{Machine: Machine{Ranks: -1}}
	if _, err := ProjectFactorization(4096, SqExp2D(), []float64{1, 0.1}, bad, 1); err == nil {
		t.Error("negative ranks accepted")
	}
}

// TestProjectFactorizationRejectsBadKernel: a kernel input geo cannot
// evaluate is an error, not a panic inside the sampled precision map.
func TestProjectFactorizationRejectsBadKernel(t *testing.T) {
	for _, c := range []struct {
		name   string
		kernel geo.Kernel
		theta  []float64
	}{
		{"matern-short-theta", Matern2D(), []float64{1, 0.1}},
		{"sqexp-4d", geo.SqExp{Dimension: 4}, []float64{1, 0.1}},
		{"nil-kernel", nil, []float64{1, 0.1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := ProjectFactorization(1024, c.kernel, c.theta, Options{UReq: 1e-4, TileSize: 64}, 1)
			if err == nil {
				t.Fatalf("accepted, projected %+v", p)
			}
		})
	}
}

func TestProjectFactorizationSTCCounting(t *testing.T) {
	// A strongly-decaying kernel at loose accuracy yields STC somewhere.
	proj, err := ProjectFactorization(65536, SqExp2D(), []float64{1, 0.01},
		Options{UReq: 1e-2, TileSize: 2048, Machine: OneV100()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if proj.CommTasks == 0 {
		t.Fatal("no communication-issuing tasks counted")
	}
	if proj.STCTasks < 0 || proj.STCTasks > proj.CommTasks {
		t.Errorf("STC count %d outside [0,%d]", proj.STCTasks, proj.CommTasks)
	}
}

func TestMultiGPUProjectionScales(t *testing.T) {
	one, err := ProjectFactorization(65536, SqExp2D(), []float64{1, 0.1},
		Options{TileSize: 2048, Machine: OneV100()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	node, err := ProjectFactorization(65536, SqExp2D(), []float64{1, 0.1},
		Options{TileSize: 2048, Machine: Summit(1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if node.Time >= one.Time {
		t.Errorf("6 GPUs (%.3fs) not faster than 1 (%.3fs)", node.Time, one.Time)
	}
	if node.Gflops < 3*one.Gflops {
		t.Errorf("node speedup %.2fx below 3x", node.Gflops/one.Gflops)
	}
}

func TestPredictAtDistanceApproachesMean(t *testing.T) {
	// Kriging far from every observation approaches the process mean (0).
	ds, err := GenerateDataset(64, 2, SqExp2D(), []float64{1, 0.01}, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Predict(ds, []float64{1, 0.01}, []geo.Point{{X: 50, Y: 50}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]) > 1e-6 {
		t.Errorf("far-field prediction %g, want ~0", got[0])
	}
}

func TestFitReportsDataMotion(t *testing.T) {
	ds, err := GenerateDataset(100, 2, SqExp2D(), []float64{1, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fit(ds, Options{TileSize: 25, MaxEvals: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesH2D == 0 {
		t.Error("no H2D bytes accounted during fitting")
	}
	if rep.GflopsPerW <= 0 {
		t.Error("no energy efficiency reported")
	}
}
