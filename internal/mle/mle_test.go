package mle

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/linalg"
	"geompc/internal/optimize"
	"geompc/internal/prec"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// denseNegLogLik is an independent reference implementation of −ℓ(θ).
func denseNegLogLik(locs []geo.Point, z []float64, k geo.Kernel, theta []float64, nugget float64) float64 {
	n := len(locs)
	a := geo.CovMatrix(locs, k, theta, nugget)
	if err := linalg.PotrfLower(n, a, n); err != nil {
		return math.Inf(1)
	}
	logdet := 0.0
	for i := 0; i < n; i++ {
		logdet += math.Log(a[i*n+i])
	}
	logdet *= 2
	y := append([]float64(nil), z...)
	linalg.TrsvLNN(n, a, n, y)
	quad := 0.0
	for _, v := range y {
		quad += v * v
	}
	return 0.5 * (float64(n)*math.Log(2*math.Pi) + logdet + quad)
}

func testProblem(t *testing.T, n int, ureq float64) (*Problem, []float64) {
	t.Helper()
	rng := stats.NewRNG(7, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	k := geo.SqExp{Dimension: 2}
	truth := []float64{1.0, 0.1}
	z, err := geo.SimulateField(locs, k, truth, 1e-8, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Locs: locs, Z: z, Kernel: k, Nugget: 1e-8, TileSize: 32, UReq: ureq,
	}, truth
}

func TestNegLogLikMatchesDense(t *testing.T) {
	p, truth := testProblem(t, 100, 0) // exact FP64
	got, err := p.NegLogLik(truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := denseNegLogLik(p.Locs, p.Z, p.Kernel, truth, p.Nugget)
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("NegLogLik = %.10g, dense reference %.10g", got, want)
	}
}

func TestNegLogLikMPCloseToExact(t *testing.T) {
	p, truth := testProblem(t, 100, 0)
	exact, err := p.NegLogLik(truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.UReq = 1e-9
	tight, err := p.NegLogLik(truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tight-exact) > 1e-3*math.Abs(exact)+0.5 {
		t.Errorf("u_req=1e-9 likelihood %.8g too far from exact %.8g", tight, exact)
	}
}

func TestNegLogLikMaximizedNearTruth(t *testing.T) {
	// −ℓ at the truth must be below −ℓ at clearly wrong parameters.
	p, truth := testProblem(t, 100, 0)
	atTruth, _ := p.NegLogLik(truth, nil)
	for _, wrong := range [][]float64{{0.2, 0.1}, {1.0, 0.9}, {1.9, 0.02}} {
		v, _ := p.NegLogLik(wrong, nil)
		if v <= atTruth {
			t.Errorf("NLL(%v) = %g not above NLL(truth) = %g", wrong, v, atTruth)
		}
	}
}

func TestNegLogLikRejectsBadTheta(t *testing.T) {
	p, _ := testProblem(t, 64, 0)
	var rs RunStats
	v, err := p.NegLogLik([]float64{-1, 0.1}, &rs)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Errorf("negative variance gave finite likelihood %g", v)
	}
	if rs.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", rs.Rejected)
	}
}

// TestNegLogLikRejectsNonPositiveTheta: θ entries that are zero, NaN or
// infinite are infeasible points, rejected before Σ(θ) is built — σ² = 0
// with no nugget is the zero matrix, which has no precision map — and a θ
// of the wrong length is an error.
func TestNegLogLikRejectsNonPositiveTheta(t *testing.T) {
	p, _ := testProblem(t, 64, 1e-6)
	p.Nugget, p.TileSize = 0, 16
	for _, theta := range [][]float64{{0, 0.1}, {1, 0}, {math.NaN(), 0.1}, {1, math.Inf(1)}} {
		var rs RunStats
		v, err := p.NegLogLik(theta, &rs)
		if err != nil || !math.IsInf(v, 1) || rs.Rejected != 1 || rs.Evaluations != 0 {
			t.Errorf("θ = %v: NLL %g, err %v, %+v; want +Inf, no error, one rejection and no factorization", theta, v, err, rs)
		}
	}
	if _, err := p.NegLogLik([]float64{1}, nil); err == nil {
		t.Error("a one-entry θ for a two-parameter kernel was accepted")
	}
}

func TestNegLogLikCountsNaNRejection(t *testing.T) {
	// A NaN observation leaves Σ(θ) SPD and every pivot positive, so only
	// the likelihood's own NaN exit can reject the evaluation.
	p, truth := testProblem(t, 64, 0)
	p.Z[3] = math.NaN()
	var rs RunStats
	v, err := p.NegLogLik(truth, &rs)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Errorf("NaN observation gave likelihood %g, want +Inf", v)
	}
	if rs.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", rs.Rejected)
	}
}

// The fit's first evaluations sit at the lower bounds (β = 0.01), where most
// of Σ is far below 1e-19 and the float32 tile kernels see operands and
// products under the binary32 normal range. Flushing those to zero must cost
// no accuracy against the dense FP64 oracle, and wiring the kernels to their
// OS thread must not make the likelihood depend on the scheduler.
func TestNegLogLikUnderflowRegime(t *testing.T) {
	rng := stats.NewRNG(7, 0)
	locs := geo.GenerateLocations(400, 2, rng)
	k := geo.Matern{Dimension: 2}
	z, err := geo.SimulateField(locs, k, []float64{1, 0.03, 1}, 1e-8, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{Locs: locs, Z: z, Kernel: k, Nugget: 1e-8, TileSize: 64, UReq: 1e-9}
	for _, theta := range [][]float64{{0.01, 0.01, 0.01}, {1, 0.01, 1}} {
		want := denseNegLogLik(locs, z, k, theta, p.Nugget)
		var got [3]float64
		for i, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got[i], err = p.NegLogLik(theta, nil)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
		}
		if math.Abs(got[0]-want) > 1e-6*math.Abs(want) {
			t.Errorf("θ=%v: NLL %.12g, dense FP64 oracle %.12g", theta, got[0], want)
		}
		for i, v := range got[1:] {
			if math.Float64bits(v) != math.Float64bits(got[0]) {
				t.Errorf("θ=%v: NLL %x at GOMAXPROCS 1, %x at %d", theta, math.Float64bits(got[0]), math.Float64bits(v), 2<<(2*i))
			}
		}
	}
}

// The covariance tiles are generated on every core through one shared bound
// kernel; the matrix must be the one a serial Fill through a kernel of its
// own writes, bit for bit, whatever the worker count — for sqexp and for
// Matérn at ν ≠ 0.5, where the goroutines build the shared lazy table in
// whatever order they reach its panels.
func TestFillMatchesSerialFill(t *testing.T) {
	locs := geo.GenerateLocations(300, 2, stats.NewRNG(9, 0))
	for _, c := range []struct {
		k     geo.Kernel
		theta []float64
	}{
		{geo.SqExp{Dimension: 2}, []float64{1, 0.1}},
		{geo.Matern{Dimension: 2}, []float64{1, 0.03, 1}},
		{geo.Matern{Dimension: 2}, []float64{0.7, 0.2, 1.7}},
	} {
		p := &Problem{Locs: locs, Z: make([]float64, len(locs)), Kernel: c.k, Nugget: 1e-8, TileSize: 49}
		desc, err := tile.NewDesc(len(locs), p.TileSize, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := tile.NewMatrix(desc, false)
		bk := c.k.Bind(c.theta)
		want.Fill(func(tl *tile.Tile, r0, c0 int) {
			geo.FillTile(bk, locs, r0, c0, tl.M, tl.N, p.Nugget, tl.Data, tl.N)
		})
		for _, procs := range []int{1, 2, 8} {
			got := tile.NewMatrix(desc, false)
			prev := runtime.GOMAXPROCS(procs)
			p.fill(got, c.theta)
			runtime.GOMAXPROCS(prev)
			for i := 0; i < desc.NT; i++ {
				for j := 0; j <= i; j++ {
					g, w := got.At(i, j).Data, want.At(i, j).Data
					for e := range w {
						if math.Float64bits(g[e]) != math.Float64bits(w[e]) {
							t.Fatalf("%s θ=%v GOMAXPROCS %d: tile (%d,%d) entry %d = %x, serial Fill %x",
								c.k.Name(), c.theta, procs, i, j, e, math.Float64bits(g[e]), math.Float64bits(w[e]))
						}
					}
				}
			}
		}
	}
}

func TestFitRecoversParameters(t *testing.T) {
	p, truth := testProblem(t, 196, 0)
	start, lo, hi := DefaultBounds(2)
	fit, err := Fit(p, start, lo, hi, optimize.Options{Tol: 1e-9, MaxEvals: 500})
	if err != nil {
		t.Fatal(err)
	}
	// One replica at n=196: expect rough recovery (MC sampling noise).
	if math.Abs(fit.Theta[0]-truth[0]) > 0.5 {
		t.Errorf("sigma2 estimate %g far from truth %g", fit.Theta[0], truth[0])
	}
	if math.Abs(fit.Theta[1]-truth[1]) > 0.1 {
		t.Errorf("beta estimate %g far from truth %g", fit.Theta[1], truth[1])
	}
	if fit.Stats.Evaluations == 0 || fit.Stats.Time <= 0 || fit.Stats.Energy <= 0 {
		t.Errorf("execution stats not accumulated: %+v", fit.Stats)
	}
}

func TestFitMPMatchesExactFit(t *testing.T) {
	// The paper's core claim: u_req=1e-9 estimation ≈ exact estimation.
	pExact, _ := testProblem(t, 144, 0)
	pMP, _ := testProblem(t, 144, 1e-9)
	start, lo, hi := DefaultBounds(2)
	fe, err := Fit(pExact, start, lo, hi, optimize.Options{Tol: 1e-9, MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := Fit(pMP, start, lo, hi, optimize.Options{Tol: 1e-9, MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	// The σ² direction of the sqexp likelihood is nearly flat, so compare
	// optima by likelihood value under the exact model rather than by hard
	// per-parameter distance.
	for i := range fe.Theta {
		if math.Abs(fe.Theta[i]-fm.Theta[i]) > 0.15 {
			t.Errorf("param %d: exact %g vs MP@1e-9 %g", i, fe.Theta[i], fm.Theta[i])
		}
	}
	atExact, _ := pExact.NegLogLik(fe.Theta, nil)
	atMP, _ := pExact.NegLogLik(fm.Theta, nil)
	if math.Abs(atExact-atMP) > 0.5 {
		t.Errorf("MP optimum is %.3f worse in exact likelihood (%.4f vs %.4f)",
			atMP-atExact, atMP, atExact)
	}
}

func TestPredictInterpolates(t *testing.T) {
	// Prediction at an observed location with negligible nugget must return
	// (nearly) the observation itself.
	p, truth := testProblem(t, 100, 0)
	got, err := Predict(p, truth, []geo.Point{p.Locs[3], p.Locs[50]})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-p.Z[3]) > 1e-4 || math.Abs(got[1]-p.Z[50]) > 1e-4 {
		t.Errorf("kriging at observed points: got %v, want %g, %g", got, p.Z[3], p.Z[50])
	}
}

func TestPredictErrorPropagation(t *testing.T) {
	p, _ := testProblem(t, 36, 0)
	if _, err := Predict(p, []float64{-1, 0.1}, []geo.Point{{X: 0.5, Y: 0.5}}); err == nil {
		t.Error("Predict accepted non-SPD theta")
	}
}

func TestMonteCarloSmall(t *testing.T) {
	cfg := MCConfig{
		Replicas: 4, N: 100, Dim: 2,
		Kernel:    geo.SqExp{Dimension: 2},
		TrueTheta: []float64{1, 0.1},
		UReqs:     []float64{0, 1e-9},
		Nugget:    1e-8, TileSize: 32, Seed: 11, MaxEvals: 250,
	}
	res, err := MonteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d result sets, want 2", len(res))
	}
	for _, r := range res {
		if r.Failed > 0 {
			t.Errorf("u_req=%g: %d replicas failed", r.UReq, r.Failed)
		}
		if len(r.Estimates[0]) != cfg.Replicas {
			t.Fatalf("u_req=%g: %d estimates", r.UReq, len(r.Estimates[0]))
		}
		med := stats.Summarize(r.Estimates[1]).Median
		if math.Abs(med-0.1) > 0.08 {
			t.Errorf("u_req=%g: median beta %g far from 0.1", r.UReq, med)
		}
	}
	// Exact and 1e-9 medians must be close to each other (Fig 5's message).
	m0 := stats.Summarize(res[0].Estimates[1]).Median
	m9 := stats.Summarize(res[1].Estimates[1]).Median
	if math.Abs(m0-m9) > 0.03 {
		t.Errorf("median beta: exact %g vs 1e-9 %g", m0, m9)
	}
}

// TestMonteCarloStatsSumReplicas pins MCResult.Stats as the field-wise sum
// of its replicas' fit statistics, data motion included.
func TestMonteCarloStatsSumReplicas(t *testing.T) {
	cfg := MCConfig{
		Replicas: 3, N: 48, Dim: 2,
		Kernel:    geo.SqExp{Dimension: 2},
		TrueTheta: []float64{1, 0.1},
		UReqs:     []float64{1e-9},
		Nugget:    1e-6, TileSize: 16, Seed: 5, MaxEvals: 12,
	}
	res, err := MonteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want RunStats
	for r := 0; r < cfg.Replicas; r++ {
		fit, err := runReplica(cfg, cfg.UReqs[0], r, cfg.Kernel.NumParams())
		if err != nil || fit == nil {
			t.Fatalf("replica %d: fit %v, error %v", r, fit, err)
		}
		fs := fit.Stats
		want.Evaluations += fs.Evaluations
		want.Time += fs.Time
		want.Energy += fs.Energy
		want.Flops += fs.Flops
		want.BytesH2D += fs.BytesH2D
		want.BytesD2H += fs.BytesD2H
		want.BytesNet += fs.BytesNet
		want.Rejected += fs.Rejected
	}
	got := res[0].Stats
	if got != want {
		t.Errorf("MCResult.Stats = %+v, replicas sum to %+v", got, want)
	}
	if got.BytesH2D <= 0 {
		t.Errorf("BytesH2D = %d, want > 0", got.BytesH2D)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	if _, err := MonteCarlo(MCConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

// TestMonteCarloRejectsBadConfig: a dimension the location generator has
// no lattice for, a missing kernel or a true θ of the wrong length is an
// error before the sweep starts — not a panic inside a sweep goroutine,
// which no caller can recover.
func TestMonteCarloRejectsBadConfig(t *testing.T) {
	good := func() MCConfig {
		return MCConfig{
			Replicas: 1, N: 32, Dim: 2, Kernel: geo.SqExp{Dimension: 2}, TrueTheta: []float64{1, 0.1},
			UReqs: []float64{0}, Nugget: 1e-8, TileSize: 16, Seed: 1, MaxEvals: 2,
		}
	}
	for name, edit := range map[string]func(*MCConfig){
		"Dim 4":      func(c *MCConfig) { c.Dim = 4 },
		"Dim 1":      func(c *MCConfig) { c.Dim = 1 },
		"nil Kernel": func(c *MCConfig) { c.Kernel = nil },
		"short θ":    func(c *MCConfig) { c.TrueTheta = []float64{1} },
		"long θ":     func(c *MCConfig) { c.TrueTheta = []float64{1, 0.1, 0.5} },
	} {
		cfg := good()
		edit(&cfg)
		if _, err := MonteCarlo(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestRejectsUnusableUReq: a NaN, infinite or negative u_req is an error
// from every entry point — not an exact FP64 run (NaN) or an all-FP16 one
// (+Inf) — and MonteCarlo refuses it before it fits any replica, rather
// than counting each replica's failure.
func TestRejectsUnusableUReq(t *testing.T) {
	mc := MCConfig{
		Replicas: 1, N: 32, Dim: 2,
		Kernel:    geo.SqExp{Dimension: 2},
		TrueTheta: []float64{1, 0.1},
		Nugget:    1e-8, TileSize: 16, Seed: 1, MaxEvals: 2,
	}
	for _, u := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-4} {
		p, truth := testProblem(t, 32, u)
		start, lo, hi := DefaultBounds(2)
		_, nllErr := p.NegLogLik(truth, nil)
		_, fitErr := Fit(p, start, lo, hi, optimize.Options{MaxEvals: 2})
		mc.UReqs = []float64{0, u}
		_, mcErr := MonteCarlo(mc)
		for name, err := range map[string]error{"NegLogLik": nllErr, "Fit": fitErr, "MonteCarlo": mcErr} {
			if err == nil || !strings.Contains(err.Error(), "u_req") {
				t.Errorf("%s at u_req %g: error %v, want a u_req error", name, u, err)
			}
		}
	}
}

// TestRejectsUnusableLadder: a precision ladder the factorization cannot
// run — empty, or holding a format outside prec.CholeskySet — is an error
// from every entry point, not a panic in the precision map or a run that
// sends BF16_32 tiles as binary16.
func TestRejectsUnusableLadder(t *testing.T) {
	for _, c := range []struct {
		name   string
		ladder []prec.Precision
	}{
		{"empty", []prec.Precision{}},
		{"BF16_32", []prec.Precision{prec.FP64, prec.FP32, prec.BF16x32}},
		{"TF32", []prec.Precision{prec.FP64, prec.TF32, prec.FP16}},
	} {
		entries := map[string]func(p *Problem, truth []float64) error{
			"NegLogLik": func(p *Problem, truth []float64) error {
				_, err := p.NegLogLik(truth, nil)
				return err
			},
			"Fit": func(p *Problem, _ []float64) error {
				start, lo, hi := DefaultBounds(2)
				_, err := Fit(p, start, lo, hi, optimize.Options{MaxEvals: 2})
				return err
			},
		}
		for name, run := range entries {
			p, truth := testProblem(t, 32, 1e-4)
			p.Ladder = c.ladder
			if err := run(p, truth); err == nil || !strings.Contains(err.Error(), "ladder") {
				t.Errorf("%s with the %s ladder: error %v, want a ladder error", name, c.name, err)
			}
		}
	}
}

// TestFitRejectsNaNBounds: a NaN lower bound, upper bound or start is an
// error, not a fit that reports its start point as θ̂.
func TestFitRejectsNaNBounds(t *testing.T) {
	p, _ := testProblem(t, 16, 0)
	nan := math.NaN()
	for _, r := range []struct {
		name          string
		dim           int
		start, lo, hi float64
	}{
		{"lo", 0, 0.01, nan, 2},
		{"hi", 1, 0.01, 0.01, nan},
		{"start", 0, nan, 0.01, 2},
	} {
		start, lo, hi := DefaultBounds(2)
		start[r.dim], lo[r.dim], hi[r.dim] = r.start, r.lo, r.hi
		if fit, err := Fit(p, start, lo, hi, optimize.Options{MaxEvals: 20}); err == nil {
			t.Errorf("NaN %s accepted: θ̂ = %v", r.name, fit.Theta)
		}
	}
}

func TestProblemValidation(t *testing.T) {
	p := &Problem{Locs: make([]geo.Point, 3), Z: make([]float64, 2), Kernel: geo.SqExp{Dimension: 2}}
	if _, err := p.NegLogLik([]float64{1, 1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	p2 := &Problem{Locs: make([]geo.Point, 2), Z: make([]float64, 2), Kernel: geo.SqExp{Dimension: 2}}
	if _, err := Fit(p2, []float64{1}, []float64{0}, []float64{2}, optimize.Options{}); err == nil {
		t.Error("wrong start dimension accepted")
	}
}
