package cg

import (
	"math"
	"sync/atomic"
	"testing"

	_ "geompc/internal/cholesky" // registers the "direct" backend
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/linalg"
	"geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/solver"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// problem assembles a jittered-grid sqexp covariance system Σx = b with a
// generous nugget (CG conditioning) plus its precision maps.
func problem(t *testing.T, n, ts int, ureq float64, ranks, devPerRank int) (solver.Config, []float64) {
	t.Helper()
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
		geo.CovTile(locs, r0, c0, tl.M, tl.N, kfn, theta, 1e-2, tl.Data, tl.N)
	})
	maps := precmap.New(precmap.FromMatrix(mat, ureq, prec.CholeskySet), ureq)
	mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
	plat, err := runtime.NewPlatform(hw.SummitNode, ranks, devPerRank)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	brng := stats.NewRNG(7, 1)
	for i := range rhs {
		rhs[i] = brng.Norm()
	}
	return solver.Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, RHS: rhs}, rhs
}

// denseSolve solves the storage-quantized system exactly in FP64.
func denseSolve(t *testing.T, cfg solver.Config, rhs []float64) []float64 {
	t.Helper()
	n := cfg.Desc.N
	a := cfg.Matrix.ToDense()
	if err := linalg.PotrfLower(n, a, n); err != nil {
		t.Fatalf("reference factorization: %v", err)
	}
	x := append([]float64(nil), rhs...)
	linalg.TrsvLNN(n, a, n, x)
	linalg.TrsvLTN(n, a, n, x)
	return x
}

func relErr(x, ref []float64) float64 {
	num, den := 0.0, 0.0
	for i := range x {
		d := x[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	return math.Sqrt(num / den)
}

func TestGraphDegrees(t *testing.T) {
	// Successors must exactly mirror NumPredecessors for the engine's
	// commit counting; check a multi-iteration phantom chunk.
	cfg, _ := problem(t, 128, 32, 1e-4, 2, 2)
	cp := chunkParams{
		iters: 3,
		precs: []prec.Precision{prec.FP16, prec.FP32, prec.FP64},
		pwire: []prec.Precision{prec.FP16, prec.FP16, prec.FP32, prec.FP64},
	}
	g, err := newGraph(cfg, cp, nil, new(atomic.Value))
	if err != nil {
		t.Fatal(err)
	}
	indeg := make([]int, g.NumTasks())
	var buf []int
	for id := 0; id < g.NumTasks(); id++ {
		buf = g.Successors(id, buf[:0])
		for _, s := range buf {
			indeg[s]++
		}
	}
	for id := 0; id < g.NumTasks(); id++ {
		if indeg[id] != g.NumPredecessors(id) {
			op, it, i, j := g.decode(id)
			t.Fatalf("task %d (op=%d t=%d i=%d j=%d): in-degree %d vs declared %d",
				id, op, it, i, j, indeg[id], g.NumPredecessors(id))
		}
	}
}

func TestDifferentialVsDirect(t *testing.T) {
	// CG must reproduce the exact FP64 solve of the same storage-quantized
	// system across sizes, strategies and accuracy demands.
	for _, tc := range []struct {
		n, ts int
		ureq  float64
		strat solver.Strategy
	}{
		{96, 32, 1e-6, solver.Auto},
		{96, 32, 1e-6, solver.ForceTTC},
		{96, 32, 1e-2, solver.Auto},
		{160, 32, 1e-6, solver.Auto},
		{160, 32, 1e-2, solver.ForceTTC},
	} {
		cfg, rhs := problem(t, tc.n, tc.ts, tc.ureq, 2, 2)
		cfg.Strategy = tc.strat
		res, err := Run(cfg, nil)
		if err != nil {
			t.Fatalf("n=%d ureq=%g %v: %v", tc.n, tc.ureq, tc.strat, err)
		}
		if res.Err != nil {
			t.Fatalf("n=%d ureq=%g %v: numeric failure %v", tc.n, tc.ureq, tc.strat, res.Err)
		}
		if !res.Converged {
			t.Fatalf("n=%d ureq=%g %v: no convergence after %d iterations (relres %g)",
				tc.n, tc.ureq, tc.strat, res.Iterations, res.Residual)
		}
		ref := denseSolve(t, cfg, rhs)
		if e := relErr(res.Solution, ref); e > 1e-6 {
			t.Errorf("n=%d ureq=%g %v: solution error %g vs exact solve (relres %g after %d iters)",
				tc.n, tc.ureq, tc.strat, e, res.Residual, res.Iterations)
		}
		if res.Iterations <= 0 || res.Iterations > 500 {
			t.Errorf("n=%d: implausible iteration count %d", tc.n, res.Iterations)
		}
	}
}

func TestPlanCacheReplay(t *testing.T) {
	// A second identical solve must replay compiled chunk plans with
	// bit-identical stats and solution.
	c := plan.NewCache(nil)
	run := func() *solver.Result {
		cfg, _ := problem(t, 96, 32, 1e-6, 2, 2)
		res, err := Run(cfg, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	first := run()
	misses := c.Stats().Misses
	if misses == 0 {
		t.Fatal("first solve compiled no plans")
	}
	second := run()
	if c.Stats().Hits == 0 {
		t.Error("second solve replayed no plans")
	}
	if c.Stats().Misses != misses {
		t.Errorf("second solve recompiled: misses %d → %d", misses, c.Stats().Misses)
	}
	if first.Digest() != second.Digest() {
		t.Errorf("replay digest %016x != compile digest %016x", second.Digest(), first.Digest())
	}
	if first.Stats.Makespan != second.Stats.Makespan || first.Stats.Energy != second.Stats.Energy {
		t.Errorf("replay stats diverged: makespan %g vs %g, energy %g vs %g",
			first.Stats.Makespan, second.Stats.Makespan, first.Stats.Energy, second.Stats.Energy)
	}
	for i := range first.Solution {
		if first.Solution[i] != second.Solution[i] {
			t.Fatalf("replayed solution bit %d diverged", i)
		}
	}
}

func TestPhantomRun(t *testing.T) {
	// Phantom mode models the iteration trajectory without tile data.
	cfg, _ := problem(t, 160, 32, 1e-4, 2, 2)
	cfg.Matrix = nil
	cfg.RHS = nil
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations <= 0 {
		t.Fatalf("phantom run did not converge: %d iterations, relres %g", res.Iterations, res.Residual)
	}
	if res.Stats.Makespan <= 0 || res.Stats.Energy <= 0 || res.Stats.BytesNet <= 0 {
		t.Errorf("phantom run has degenerate stats: %+v", res.Stats)
	}
	// Lower-precision iterations must actually be scheduled under Auto.
	low := res.Metrics().Counter("cg/iters/"+prec.FP16.String()).Value() +
		res.Metrics().Counter("cg/iters/"+prec.FP16x32.String()).Value() +
		res.Metrics().Counter("cg/iters/"+prec.FP32.String()).Value()
	if low == 0 {
		t.Error("no reduced-precision iterations under Auto")
	}
	if hi := res.Metrics().Counter("cg/iters/" + prec.FP64.String()).Value(); hi == 0 {
		t.Error("no FP64 refinement iterations near convergence")
	}
}

func TestSTCMovesFewerBytes(t *testing.T) {
	// Under Auto the search-direction broadcasts travel down-converted, so
	// network volume must be strictly below ForceTTC's for the same
	// iteration schedule (phantom mode: identical trajectories).
	cfg, _ := problem(t, 160, 32, 1e-4, 4, 1)
	cfg.Matrix = nil
	cfg.RHS = nil
	run := func(s solver.Strategy) *solver.Result {
		c := cfg
		c.Strategy = s
		res, err := Run(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stc, ttc := run(solver.Auto), run(solver.ForceTTC)
	if stc.Iterations != ttc.Iterations {
		t.Fatalf("strategies diverged in trajectory: %d vs %d iterations", stc.Iterations, ttc.Iterations)
	}
	if stc.Stats.BytesNet >= ttc.Stats.BytesNet {
		t.Errorf("STC moved %d net bytes, TTC %d — expected strictly fewer", stc.Stats.BytesNet, ttc.Stats.BytesNet)
	}
}

func TestSLQLogDet(t *testing.T) {
	cfg, _ := problem(t, 96, 32, 1e-6, 1, 2)
	n := cfg.Desc.N
	a := cfg.Matrix.ToDense()
	if err := linalg.PotrfLower(n, a, n); err != nil {
		t.Fatal(err)
	}
	exact := 0.0
	for i := 0; i < n; i++ {
		exact += 2 * math.Log(a[i*n+i])
	}
	est, probeRes, err := LogDetSLQ(cfg, 8, 32, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if len(probeRes) != 8 {
		t.Fatalf("expected 8 probe results, got %d", len(probeRes))
	}
	if rel := math.Abs(est-exact) / math.Abs(exact); rel > 0.10 {
		t.Errorf("SLQ estimate %g vs exact %g (relative error %g)", est, exact, rel)
	}
	// Reproducibility: same seed, same estimate bits.
	est2, _, err := LogDetSLQ(cfg, 8, 32, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if est != est2 {
		t.Errorf("SLQ not reproducible: %x vs %x", math.Float64bits(est), math.Float64bits(est2))
	}
}

func TestBackendRegistry(t *testing.T) {
	names := solver.Names()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if !seen["direct"] || !seen["cg"] {
		t.Fatalf("backend registry missing entries: %v", names)
	}
	b, err := solver.ByName("")
	if err != nil || b.Name() != "direct" {
		t.Fatalf(`ByName("") = %v, %v; want the direct backend`, b, err)
	}
	if _, err := solver.ByName("nope"); err == nil {
		t.Fatal("unknown backend name did not error")
	}
	cgb, err := solver.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	cfg, rhs := problem(t, 96, 32, 1e-6, 1, 1)
	res, err := cgb.Solve(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := denseSolve(t, cfg, rhs)
	if e := relErr(res.Solution, ref); e > 1e-6 {
		t.Errorf("interface-routed CG solution error %g", e)
	}
}
