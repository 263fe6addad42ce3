package cholesky

import (
	"math"
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

// TestBodiesComputeInChargedPrecision ties the simulator to the numerics:
// the precision the engine charges for a task must be the one its body
// computes in. A traced numeric factorization runs on one device under a
// mixed map — FP64 diagonal, then FP32, FP16_32 and FP16 bands — with a
// unit nugget. Its recorded schedule is then replayed serially in commit
// order on a fresh storage-rounded copy of the matrix, each kernel at the
// ScheduledTask.Prec the engine charged. On one device every consumer reads
// the producer's stored tile, so the two factors are equal bit for bit
// exactly when every body computed in its charged precision.
func TestBodiesComputeInChargedPrecision(t *testing.T) {
	const nt, ts = 7, 16
	locs := geo.GenerateLocations(nt*ts, 2, stats.NewRNG(42, 0))
	d, err := tile.NewDesc(nt*ts, ts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	covariance := func() *tile.Matrix {
		mat := tile.NewMatrix(d, false)
		mat.Fill(func(tl *tile.Tile, r0, c0 int) {
			geo.CovTile(locs, r0, c0, tl.M, tl.N, geo.SqExp{Dimension: 2}, []float64{1, 0.05}, 1, tl.Data, tl.N)
		})
		return mat
	}
	kernel := precmap.Uniform(nt, prec.FP16)
	for i := 1; i < nt; i++ {
		kernel[i][i-1] = prec.FP32
		if i >= 2 {
			kernel[i][i-2] = prec.FP16x32
		}
	}
	maps := precmap.New(kernel, 0)
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mat := covariance()
	res, err := Run(Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, Options: runtime.Options{Trace: true}})
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	sched := res.Stats.Trace.Tasks
	if len(sched) != newIDs(nt).numTasks {
		t.Fatalf("schedule records %d tasks, the graph has %d", len(sched), newIDs(nt).numTasks)
	}

	ref := covariance()
	ref.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
	ids := newIDs(nt)
	gemms := map[prec.Precision]int{}
	for _, st := range sched {
		op, m, n, k := ids.decode(st.ID)
		p := st.Prec
		switch op {
		case hw.KindPotrf:
			c := ref.At(k, k)
			if p != prec.FP64 {
				t.Fatalf("POTRF(%d) charged in %v: a numeric run keeps the diagonal in FP64", k, p)
			}
			if err := linalg.PotrfLower(c.M, c.Data, c.N); err != nil {
				t.Fatalf("replayed POTRF(%d): %v", k, err)
			}
		case hw.KindTrsm:
			a, b := ref.At(k, k), ref.At(m, k)
			linalg.TrsmRLTPrec(p, b.M, a.N, a.Data, a.N, b.Data, b.N)
		case hw.KindSyrk:
			a, c := ref.At(m, k), ref.At(m, m)
			var opA linalg.Operand
			opA.Pack(p, a.M, a.N, a.Data, a.N, true)
			linalg.SyrkLNPacked(-1, &opA, 1, c.Data, c.N)
			opA.Release()
		case hw.KindGemm:
			a, b, c := ref.At(m, k), ref.At(n, k), ref.At(m, n)
			var opA, opB linalg.Operand
			opA.Pack(p, a.M, a.N, a.Data, a.N, true)
			opB.Pack(p, b.M, b.N, b.Data, b.N, true)
			linalg.GemmNTPacked(-1, &opA, &opB, 1, c.Data, c.N)
			opA.Release()
			opB.Release()
			gemms[p]++
		}
	}
	for _, p := range []prec.Precision{prec.FP32, prec.FP16x32, prec.FP16} {
		if gemms[p] == 0 {
			t.Fatalf("no GEMM charged in %v: the map does not exercise every off-diagonal precision (%v)", p, gemms)
		}
	}

	got, want := mat.LowerToDense(), ref.LowerToDense()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("factor entry %d is %x, the replay at the charged precisions gives %x",
				i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
