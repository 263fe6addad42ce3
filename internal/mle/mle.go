// Package mle implements Gaussian maximum log-likelihood estimation for
// geospatial modeling (§III-A): the log-likelihood
//
//	ℓ(θ) = −n/2·log(2π) − ½·log|Σ(θ)| − ½·Zᵀ·Σ(θ)⁻¹·Z
//
// is evaluated by assembling the covariance in tiles, factorizing it with
// the adaptive mixed-precision Cholesky (internal/cholesky) under a given
// required accuracy u_req, and accumulating the simulated time, energy and
// data motion of every factorization. The Monte-Carlo harness reproduces
// the parameter-estimation study of §VII-B (Figs 5 and 6).
package mle

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/linalg"
	"geompc/internal/optimize"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// Problem is one dataset plus the execution configuration used for every
// likelihood evaluation. NegLogLik may be called from several goroutines at
// once; a Problem in use must not be copied or changed.
type Problem struct {
	Locs   []geo.Point
	Z      []float64
	Kernel geo.Kernel
	// Nugget is a diagonal regularization added to Σ (0 disables).
	Nugget float64

	// TileSize of the tiled factorization (paper: 2048; tests use smaller).
	TileSize int
	// UReq is the required accuracy u_req driving the precision map;
	// 0 runs exact FP64.
	UReq float64
	// Ladder is the precision set (defaults to prec.CholeskySet).
	Ladder []prec.Precision
	// Platform to simulate on (defaults to one Summit V100).
	Platform *runtime.Platform
	// Strategy for communication conversion (Auto = the paper's approach).
	Strategy cholesky.Strategy

	// mu guards the defaulting of the fields above and free, the buffers of
	// finished evaluations: all of a Problem's have one shape, so a fit
	// allocates Σ(θ) once, not per θ. Overlapping evaluations each hold one.
	mu   sync.Mutex
	free []*evalBuf
}

// evalBuf is what one evaluation computes in: the tiles of Σ(θ), then of
// its factor, and the right-hand side of the solve.
type evalBuf struct {
	mat *tile.Matrix
	y   []float64
}

// takeBuf returns a buffer of shape desc, a used one if there is one.
func (p *Problem) takeBuf(desc tile.Desc) *evalBuf {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := len(p.free); n > 0; n = len(p.free) {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		if b.mat.Desc == desc {
			return b
		}
	}
	return &evalBuf{mat: tile.NewMatrix(desc, false), y: make([]float64, desc.N)}
}

func (p *Problem) putBuf(b *evalBuf) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// checkUReq rejects an accuracy the precision rule cannot use — NaN, ±Inf
// or negative — rather than running it as exact FP64 or all FP16.
func checkUReq(u float64) error {
	if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 {
		return fmt.Errorf("mle: u_req must be 0 (exact FP64) or finite and positive, got %g", u)
	}
	return nil
}

func (p *Problem) defaults() error {
	if len(p.Locs) == 0 || len(p.Locs) != len(p.Z) {
		return fmt.Errorf("mle: %d locations vs %d observations", len(p.Locs), len(p.Z))
	}
	if err := checkUReq(p.UReq); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.TileSize <= 0 {
		p.TileSize = 64
	}
	if p.Ladder == nil {
		p.Ladder = prec.CholeskySet
	}
	// The factorization runs only the §IV ladder: TF32 and BF16_32 have no
	// element format of their own, and an empty ladder has no map.
	if len(p.Ladder) == 0 {
		return fmt.Errorf("mle: empty precision ladder")
	}
	for _, q := range p.Ladder {
		if !slices.Contains(prec.CholeskySet, q) {
			return fmt.Errorf("mle: ladder precision %v is not one of %v", q, prec.CholeskySet)
		}
	}
	if p.Platform == nil {
		plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
		if err != nil {
			return err
		}
		p.Platform = plat
	}
	return nil
}

// RunStats accumulates simulated execution statistics across likelihood
// evaluations.
type RunStats struct {
	// Evaluations counts factorizations actually run. Under Fit that is
	// one per distinct θ: optimize.Minimize answers a bit-identical repeat
	// from its table, so this reads below optimize.Result.Evals by the
	// repeated share (8–18% on the benchmark's fit workloads), and Time,
	// Energy and the byte totals with it.
	Evaluations int
	// Time is the summed simulated makespan of all factorizations.
	Time float64
	// Energy in joules, Flops executed, and data motion, summed.
	Energy                       float64
	Flops                        float64
	BytesH2D, BytesD2H, BytesNet int64
	// Rejected counts evaluations where the covariance was not SPD.
	Rejected int
}

// Merge adds every field of o into s.
func (s *RunStats) Merge(o RunStats) {
	s.Evaluations += o.Evaluations
	s.Time += o.Time
	s.Energy += o.Energy
	s.Flops += o.Flops
	s.BytesH2D += o.BytesH2D
	s.BytesD2H += o.BytesD2H
	s.BytesNet += o.BytesNet
	s.Rejected += o.Rejected
}

func (s *RunStats) add(r *cholesky.Result) {
	s.Evaluations++
	s.Time += r.Stats.Makespan
	s.Energy += r.Stats.Energy
	s.Flops += r.Stats.TotalFlops
	s.BytesH2D += r.Stats.BytesH2D
	s.BytesD2H += r.Stats.BytesD2H
	s.BytesNet += r.Stats.BytesNet
}

// NegLogLik evaluates −ℓ(θ). It returns +Inf (with no error) when Σ(θ) is
// not numerically SPD, or θ has an entry that is not finite and positive —
// the optimizer treats such θ as infeasible, the standard practice for
// Gaussian likelihoods. A θ of the wrong length is an error.
func (p *Problem) NegLogLik(theta []float64, rs *RunStats) (float64, error) {
	if err := p.defaults(); err != nil {
		return 0, err
	}
	if len(theta) != p.Kernel.NumParams() {
		return 0, fmt.Errorf("mle: θ has %d params, kernel %s needs %d", len(theta), p.Kernel.Name(), p.Kernel.NumParams())
	}
	for _, v := range theta {
		// Every parameter is a scale: σ² = 0 with no nugget is the zero
		// matrix, which has no precision map (its global norm is 0).
		if !(v > 0) || math.IsInf(v, 1) {
			if rs != nil {
				rs.Rejected++
			}
			return math.Inf(1), nil
		}
	}
	n := len(p.Locs)
	pg, qg := tile.SquarestGrid(p.Platform.Ranks)
	desc, err := tile.NewDesc(n, p.TileSize, pg, qg)
	if err != nil {
		return 0, err
	}
	buf := p.takeBuf(desc)
	defer p.putBuf(buf)
	mat := buf.mat
	p.fill(mat, theta)

	var km [][]prec.Precision
	if p.UReq > 0 {
		km = precmap.FromMatrix(mat, p.UReq, p.Ladder)
	} else {
		km = precmap.UniformAll(desc.NT, prec.FP64)
	}
	res, err := cholesky.Run(cholesky.Config{
		Desc: desc, Maps: precmap.New(km, 0), Platform: p.Platform, Matrix: mat, Strategy: p.Strategy,
	})
	if err != nil {
		return 0, err
	}
	if rs != nil {
		rs.add(res)
	}
	if res.Err != nil {
		if rs != nil {
			rs.Rejected++
		}
		return math.Inf(1), nil
	}

	// log|Σ| = 2·Σ log L_ii from the diagonal tiles.
	logdet := 0.0
	for k := 0; k < desc.NT; k++ {
		t := mat.At(k, k)
		for i := 0; i < t.M; i++ {
			d := t.Data[i*t.N+i]
			if d <= 0 || math.IsNaN(d) {
				if rs != nil {
					rs.Rejected++
				}
				return math.Inf(1), nil
			}
			logdet += math.Log(d)
		}
	}
	logdet *= 2

	// Quadratic form ZᵀΣ⁻¹Z = ‖L⁻¹Z‖² via a forward solve on the factor's
	// tiles (O(n²), negligible next to the O(n³) factorization).
	y := buf.y
	copy(y, p.Z)
	mat.ForwardSolve(y)
	quad := 0.0
	for _, v := range y {
		quad += v * v
	}

	nll := 0.5 * (float64(n)*math.Log(2*math.Pi) + logdet + quad)
	if math.IsNaN(nll) {
		if rs != nil {
			rs.Rejected++
		}
		return math.Inf(1), nil
	}
	return nll, nil
}

// fill generates Σ(θ) into mat's tiles on every core, through one bound
// kernel shared by the filling goroutines. The bits of an entry do not
// depend on which goroutine, or what order of calls, produced it (geo's
// maternBound contract), so the matrix is that of a serial Fill.
func (p *Problem) fill(mat *tile.Matrix, theta []float64) {
	bk := p.Kernel.Bind(theta)
	mat.FillParallel(func(t *tile.Tile, r0, c0 int) {
		geo.FillTile(bk, p.Locs, r0, c0, t.M, t.N, p.Nugget, t.Data, t.N)
	})
}

// FitResult reports a completed estimation.
type FitResult struct {
	Theta     []float64
	NegLogLik float64
	Converged bool
	Stats     RunStats
}

// Fit maximizes the likelihood over the box [lo, hi], starting from start
// (the paper starts from the lower bounds with tolerance 1e-9).
//
// The search runs in log-parameter space: the Gaussian likelihood of the
// paper's kernels forms an extremely narrow curved valley in (σ², β) — a
// few percent of β mis-specification changes −ℓ by orders of magnitude —
// and the paper's BOBYQA follows such valleys with its quadratic model.
// The substitute simplex methods need the log reparameterization (all
// parameters are positive scales) to do the same; with it, the lower-bound
// start recovers the optimum in a few hundred evaluations.
func Fit(p *Problem, start, lo, hi []float64, opt optimize.Options) (*FitResult, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	if len(start) != p.Kernel.NumParams() {
		return nil, fmt.Errorf("mle: start has %d params, kernel %s needs %d",
			len(start), p.Kernel.Name(), p.Kernel.NumParams())
	}
	for i := range lo {
		if !(lo[i] > 0) { // NaN fails too
			return nil, fmt.Errorf("mle: parameter %d lower bound %g must be positive", i, lo[i])
		}
	}
	var rs RunStats
	var evalErr error
	np := len(start)
	xbuf := make([]float64, np)
	obj := func(y []float64) float64 {
		for i, v := range y {
			xbuf[i] = math.Exp(v)
		}
		v, err := p.NegLogLik(xbuf, &rs)
		if err != nil {
			evalErr = err
			return math.Inf(1)
		}
		return v
	}
	logOf := func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = math.Log(v)
		}
		return out
	}
	res, err := optimize.Minimize(obj, logOf(start), logOf(lo), logOf(hi), opt)
	if err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	theta := make([]float64, np)
	for i, v := range res.X {
		theta[i] = math.Exp(v)
	}
	return &FitResult{
		Theta:     theta,
		NegLogLik: res.F,
		Converged: res.Converged,
		Stats:     rs,
	}, nil
}

// DefaultBounds returns the paper's optimization box: every parameter in
// [0.01, 2], with the search started at the lower bound (§VII-B).
func DefaultBounds(nparams int) (start, lo, hi []float64) {
	start = make([]float64, nparams)
	lo = make([]float64, nparams)
	hi = make([]float64, nparams)
	for i := range lo {
		lo[i], hi[i], start[i] = 0.01, 2, 0.01
	}
	return start, lo, hi
}

// Predict computes the conditional mean (simple kriging) of the field at
// the target locations given the fitted parameters, using an exact FP64
// solve: ẑ* = Σ*ᵀ Σ⁻¹ Z. Intended for held-out validation in the examples.
func Predict(p *Problem, theta []float64, targets []geo.Point) ([]float64, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	n := len(p.Locs)
	a := geo.CovMatrix(p.Locs, p.Kernel, theta, p.Nugget)
	if err := linalg.PotrfLower(n, a, n); err != nil {
		return nil, fmt.Errorf("mle: covariance not SPD at θ=%v: %w", theta, err)
	}
	// w = Σ⁻¹Z by two triangular solves.
	w := append([]float64(nil), p.Z...)
	linalg.TrsvLNN(n, a, n, w)
	linalg.TrsvLTN(n, a, n, w)
	out := make([]float64, len(targets))
	for t, pt := range targets {
		var s float64
		for i, li := range p.Locs {
			s += p.Kernel.Cov(pt.Dist(li), theta) * w[i]
		}
		out[t] = s
	}
	return out, nil
}

// MCConfig configures a Monte-Carlo parameter-estimation study (§VII-B):
// Replicas synthetic datasets are drawn from Kernel at TrueTheta and re-
// estimated at each accuracy level in UReqs (0 meaning exact FP64).
type MCConfig struct {
	Replicas  int
	N         int
	Dim       int
	Kernel    geo.Kernel
	TrueTheta []float64
	UReqs     []float64
	Nugget    float64
	TileSize  int
	Seed      uint64
	Platform  *runtime.Platform
	// MaxEvals bounds optimizer evaluations per fit (default 600).
	MaxEvals int
}

// MCResult holds, for each accuracy level, the per-parameter estimate
// samples across replicas plus aggregate execution statistics.
type MCResult struct {
	UReq      float64
	Estimates [][]float64 // [param][replica]
	Failed    int         // replicas whose fit errored
	Stats     RunStats
}

// MonteCarlo runs the full study. Replicas share true parameters but use
// independent RNG streams, so results are reproducible and embarrassingly
// parallel: the level × replica grid runs on the sweep executor, one
// worker per GOMAXPROCS, and the estimate vectors keep replica order
// regardless of completion order. A replica whose fit fails is counted in
// Failed; one whose data cannot be generated fails the study (the
// lowest-index such error).
func MonteCarlo(cfg MCConfig) ([]MCResult, error) {
	if cfg.Replicas <= 0 || cfg.N <= 0 {
		return nil, fmt.Errorf("mle: bad Monte-Carlo config: replicas=%d n=%d", cfg.Replicas, cfg.N)
	}
	// Checked here: a replica that panics inside the sweep takes the
	// process down with it.
	if cfg.Dim != 2 && cfg.Dim != 3 {
		return nil, fmt.Errorf("mle: Monte-Carlo dimension %d, want 2 or 3", cfg.Dim)
	}
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("mle: Monte-Carlo config has no kernel")
	}
	if len(cfg.TrueTheta) != cfg.Kernel.NumParams() {
		return nil, fmt.Errorf("mle: Monte-Carlo true θ has %d params, kernel %s needs %d",
			len(cfg.TrueTheta), cfg.Kernel.Name(), cfg.Kernel.NumParams())
	}
	for _, u := range cfg.UReqs {
		if err := checkUReq(u); err != nil {
			return nil, err
		}
	}
	if cfg.MaxEvals <= 0 {
		cfg.MaxEvals = 600
	}
	np := cfg.Kernel.NumParams()
	fits, err := sweep.Run(len(cfg.UReqs)*cfg.Replicas, sweep.Options{Workers: sweep.PerCore}, func(i int) (*FitResult, error) {
		return runReplica(cfg, cfg.UReqs[i/cfg.Replicas], i%cfg.Replicas, np)
	})
	if err != nil {
		return nil, err
	}
	results := make([]MCResult, len(cfg.UReqs))
	for l, ureq := range cfg.UReqs {
		mc := MCResult{UReq: ureq, Estimates: make([][]float64, np)}
		for _, fit := range fits[l*cfg.Replicas : (l+1)*cfg.Replicas] {
			if fit == nil {
				mc.Failed++
				continue
			}
			for i := 0; i < np; i++ {
				mc.Estimates[i] = append(mc.Estimates[i], fit.Theta[i])
			}
			mc.Stats.Merge(fit.Stats)
		}
		results[l] = mc
	}
	return results, nil
}

// runReplica generates replica r's dataset and fits it at ureq. A failed
// fit returns a nil result and no error; only a data-generation failure is
// an error.
func runReplica(cfg MCConfig, ureq float64, r, np int) (*FitResult, error) {
	rng := stats.NewRNG(cfg.Seed, uint64(r))
	locs := geo.GenerateLocations(cfg.N, cfg.Dim, rng)
	z, err := geo.SimulateField(locs, cfg.Kernel, cfg.TrueTheta, cfg.Nugget, rng)
	if err != nil {
		return nil, fmt.Errorf("mle: replica %d data generation: %w", r, err)
	}
	p := &Problem{
		Locs: locs, Z: z, Kernel: cfg.Kernel, Nugget: cfg.Nugget,
		TileSize: cfg.TileSize, UReq: ureq, Platform: cfg.Platform,
	}
	start, lo, hi := DefaultBounds(np)
	fit, err := Fit(p, start, lo, hi, optimize.Options{Tol: 1e-9, MaxEvals: cfg.MaxEvals})
	if err != nil {
		return nil, nil
	}
	return fit, nil
}
