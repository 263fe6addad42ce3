package mle

import (
	"math"
	"strings"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/linalg"
	"geompc/internal/optimize"
	"geompc/internal/stats"
)

// cgProblem builds a small, well-conditioned dataset for solver-path tests.
func cgProblem(t *testing.T) *Problem {
	t.Helper()
	rng := stats.NewRNG(11, 0)
	n := 96
	locs := geo.GenerateLocations(n, 2, rng)
	kernel := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.05}
	z, err := geo.SimulateField(locs, kernel, theta, 1e-2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Locs: locs, Z: z, Kernel: kernel, Nugget: 1e-2,
		TileSize: 32, UReq: 1e-6,
	}
}

func TestNegLogLikCGMatchesDirect(t *testing.T) {
	p := cgProblem(t)
	theta := []float64{1, 0.05}

	var direct RunStats
	dv, err := p.NegLogLik(theta, &direct)
	if err != nil {
		t.Fatal(err)
	}

	pc := cgProblem(t)
	pc.Solver = "cg"
	pc.SLQProbes = 8
	pc.SLQIters = 32
	var iter RunStats
	cv, err := pc.NegLogLik(theta, &iter)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(cv, 1) {
		t.Fatalf("cg path rejected a feasible θ (direct gave %g)", dv)
	}

	// The quad term is solved to 1e-10; the only disagreement is the SLQ
	// log-det estimate, bounded by its sampling error (≲10% of |log det|).
	n := len(p.Locs)
	a := geo.CovMatrix(p.Locs, p.Kernel, theta, p.Nugget)
	if err := linalg.PotrfLower(n, a, n); err != nil {
		t.Fatal(err)
	}
	logdet := 0.0
	for i := 0; i < n; i++ {
		logdet += 2 * math.Log(a[i*n+i])
	}
	if tol := 0.10*math.Abs(logdet)/2 + 1e-6; math.Abs(cv-dv) > tol {
		t.Errorf("NLL diverged: direct %g vs cg %g (tolerance %g)", dv, cv, tol)
	}

	if iter.Iterations == 0 {
		t.Error("cg path reported zero iterations")
	}
	if iter.Evaluations != 1 {
		t.Errorf("cg path counted %d evaluations, want 1", iter.Evaluations)
	}
	if iter.Time <= 0 || iter.Energy <= 0 {
		t.Errorf("cg path accumulated degenerate stats: %+v", iter)
	}
	// Probe cost must be metered: the cg evaluation runs the solve plus
	// SLQProbes probe solves.
	if iter.Time <= direct.Time/1e3 {
		t.Errorf("cg path accumulated implausibly little simulated time: %g", iter.Time)
	}
}

func TestNegLogLikUnknownSolver(t *testing.T) {
	p := cgProblem(t)
	p.Solver = "qr"
	if _, err := p.NegLogLik([]float64{1, 0.05}, nil); err == nil {
		t.Fatal("unknown solver did not error")
	}
}

// countingKernel wraps a kernel and counts covariance evaluations (FillTile
// reaches every kernel through Cov, directly or via the unbound adapter).
type countingKernel struct {
	geo.Kernel
	calls *int
}

func (k countingKernel) Cov(h float64, theta []float64) float64 {
	*k.calls++
	return k.Kernel.Cov(h, theta)
}

// TestFitUnknownSolverFailsBeforeGeneration: an unknown Solver is rejected
// by Problem.defaults, so neither Fit nor NegLogLik generates a single
// covariance entry first (Fit's objective would otherwise swallow the
// per-evaluation error into +Inf and burn the whole MaxEvals budget).
func TestFitUnknownSolverFailsBeforeGeneration(t *testing.T) {
	p := cgProblem(t)
	calls := 0
	p.Kernel = countingKernel{p.Kernel, &calls}
	p.Solver = "nope"
	start, lo, hi := DefaultBounds(p.Kernel.NumParams())
	_, err := Fit(p, start, lo, hi, optimize.Options{MaxEvals: 50})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "cg direct") {
		t.Fatalf("Fit error = %v, want one naming the bad solver and the registered ones", err)
	}
	if _, err := p.NegLogLik([]float64{1, 0.05}, nil); err == nil {
		t.Fatal("NegLogLik accepted the unknown solver")
	}
	if calls != 0 {
		t.Fatalf("%d covariance evaluations before the solver name was rejected", calls)
	}
}

func TestNegLogLikCGDeterministic(t *testing.T) {
	// Two evaluations at the same θ must agree bit-for-bit (memoization
	// and the Monte-Carlo harness rely on this).
	p := cgProblem(t)
	p.Solver = "cg"
	theta := []float64{1, 0.05}
	v1, err := p.NegLogLik(theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p.NegLogLik(theta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("NLL not deterministic: %x vs %x", math.Float64bits(v1), math.Float64bits(v2))
	}
}
