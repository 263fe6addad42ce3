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
	"errors"
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
	// span is geo.Span(Locs, Locs), computed when a kernel first asks.
	spanOnce sync.Once
	span     [2]float64
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

func (p *Problem) defaults() error {
	if len(p.Locs) == 0 || len(p.Locs) != len(p.Z) {
		return fmt.Errorf("mle: %d locations vs %d observations", len(p.Locs), len(p.Z))
	}
	if err := precmap.CheckUReq(p.UReq); err != nil {
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

// NegLogLik evaluates −ℓ(θ). It returns +Inf (with no error) and counts a
// rejection when θ has an entry that is not finite and positive, Σ(θ) is
// not numerically SPD or −ℓ is NaN — the optimizer treats such θ as
// infeasible, the standard practice for Gaussian likelihoods. A θ of the
// wrong length is an error.
func (p *Problem) NegLogLik(theta []float64, rs *RunStats) (float64, error) {
	if err := p.defaults(); err != nil {
		return 0, err
	}
	bad, infeasible := geo.CheckKernel(p.Kernel, theta)
	if bad != nil {
		return 0, bad
	}
	nll, ok := 0.0, infeasible == nil
	if ok {
		var err error
		if nll, ok, err = p.negLogLik(theta, rs); err != nil {
			return 0, err
		}
	}
	if !ok || math.IsNaN(nll) { // the one rejection exit
		if rs != nil {
			rs.Rejected++
		}
		return math.Inf(1), nil
	}
	return nll, nil
}

// negLogLik fills and factorizes Σ(θ) and returns −ℓ(θ); spd is false when
// the factorization met a non-positive pivot.
func (p *Problem) negLogLik(theta []float64, rs *RunStats) (nll float64, spd bool, err error) {
	n := len(p.Locs)
	pg, qg := tile.SquarestGrid(p.Platform.Ranks)
	desc, err := tile.NewDesc(n, p.TileSize, pg, qg)
	if err != nil {
		return 0, false, err
	}
	buf := p.takeBuf(desc)
	defer p.putBuf(buf)
	mat := buf.mat
	p.fill(mat, theta)

	res, err := cholesky.Run(cholesky.Config{
		Desc: desc, Maps: precmap.New(precmap.FromMatrix(mat, p.UReq, p.Ladder), 0),
		Platform: p.Platform, Matrix: mat, Strategy: p.Strategy,
	})
	if err != nil {
		return 0, false, err
	}
	if rs != nil {
		rs.add(res)
	}
	if res.Err != nil {
		return 0, false, nil
	}

	// log|Σ| = 2·Σ log L_ii from the diagonal tiles.
	logdet := 0.0
	for k := 0; k < desc.NT; k++ {
		t := mat.At(k, k)
		for i := 0; i < t.M; i++ {
			d := t.Data[i*t.N+i]
			if d <= 0 || math.IsNaN(d) {
				return 0, false, nil
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

	return 0.5 * (float64(n)*math.Log(2*math.Pi) + logdet + quad), true, nil
}

// fill generates Σ(θ) into mat's tiles on every core, through one bound
// kernel, bound over the locations' span, shared by the filling
// goroutines. The bits of an entry do not
// depend on which goroutine, or what order of calls, produced it (geo's
// maternBound contract), so the matrix is that of a serial Fill.
func (p *Problem) fill(mat *tile.Matrix, theta []float64) {
	bk := p.Kernel.Bind(theta, func() (float64, float64) {
		p.spanOnce.Do(func() { p.span[0], p.span[1] = geo.Span(p.Locs, p.Locs) })
		return p.span[0], p.span[1]
	})
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

// Fit maximizes the likelihood over the box [lo, hi], starting from start.
// With start, lo and hi all nil it is the paper's fit (§VII-B): the box
// and start of DefaultBounds, optimize's default tolerance 1e-9 and, where
// opt.MaxEvals is not positive, at most 600 evaluations.
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
	if start == nil && lo == nil && hi == nil && p.Kernel != nil {
		start, lo, hi = DefaultBounds(p.Kernel.NumParams())
		if opt.MaxEvals <= 0 {
			opt.MaxEvals = 600
		}
	}
	// Only the start's length is checked: the optimizer clamps it into the box.
	if bad, _ := geo.CheckKernel(p.Kernel, start); bad != nil {
		return nil, bad
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
	if err := errors.Join(geo.CheckKernel(p.Kernel, theta)); err != nil {
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
	bk := p.Kernel.Bind(theta, geo.NoSpan)
	for t, pt := range targets {
		var s float64
		for i, li := range p.Locs {
			s += bk.Cov(pt.Dist(li)) * w[i]
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
	if err := errors.Join(geo.CheckKernel(cfg.Kernel, cfg.TrueTheta, cfg.Dim)); err != nil {
		return nil, err
	}
	for _, u := range cfg.UReqs {
		if err := precmap.CheckUReq(u); err != nil {
			return nil, err
		}
	}
	np := cfg.Kernel.NumParams()
	// A replica's dataset is a function of (Seed, r) alone: each is drawn
	// once (if there is a level to fit), before the level × replica fits.
	sets, err := sweep.Run(min(len(cfg.UReqs), 1)*cfg.Replicas, sweep.Options{Workers: sweep.PerCore}, func(r int) (replica, error) {
		return drawReplica(cfg, r)
	})
	if err != nil {
		return nil, err
	}
	fits, err := sweep.Run(len(cfg.UReqs)*cfg.Replicas, sweep.Options{Workers: sweep.PerCore}, func(i int) (*FitResult, error) {
		return fitReplica(cfg, cfg.UReqs[i/cfg.Replicas], sets[i%cfg.Replicas]), nil
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

// replica is one synthetic dataset of a Monte-Carlo study.
type replica struct {
	locs []geo.Point
	z    []float64
}

// drawReplica generates replica r's dataset from its own RNG stream.
func drawReplica(cfg MCConfig, r int) (replica, error) {
	rng := stats.NewRNG(cfg.Seed, uint64(r))
	locs := geo.GenerateLocations(cfg.N, cfg.Dim, rng)
	z, err := geo.SimulateField(locs, cfg.Kernel, cfg.TrueTheta, cfg.Nugget, rng)
	if err != nil {
		return replica{}, fmt.Errorf("mle: replica %d data generation: %w", r, err)
	}
	return replica{locs, z}, nil
}

// fitReplica fits dataset d at ureq; a failed fit returns nil. The fits of
// one replica at different levels may run concurrently: they only read d.
func fitReplica(cfg MCConfig, ureq float64, d replica) *FitResult {
	p := &Problem{
		Locs: d.locs, Z: d.z, Kernel: cfg.Kernel, Nugget: cfg.Nugget,
		TileSize: cfg.TileSize, UReq: ureq, Platform: cfg.Platform,
	}
	fit, err := Fit(p, nil, nil, nil, optimize.Options{MaxEvals: cfg.MaxEvals})
	if err != nil {
		return nil
	}
	return fit
}
