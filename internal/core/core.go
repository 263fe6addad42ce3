// Package core is the library's public face: it assembles the substrate
// packages into the workflow of the paper — generate or load geospatial
// data, fit a Gaussian-process model with the adaptive mixed-precision
// Cholesky under a required accuracy, predict at new locations, and project
// the performance/energy of a factorization on a chosen GPU machine.
//
// The three central ideas it exposes map directly to the paper's sections:
//
//   - adaptive tile precision via the Higham–Mary rule (§V) — Options.UReq;
//   - the automated STC/TTC conversion strategy (§VI) — Options.ForceTTC
//     toggles the baseline for comparison;
//   - calibrated GPU simulation (§IV, §VII) — Machine selects V100/A100/
//     H100 platforms and scales to multi-node Summit runs.
package core

import (
	"errors"
	"fmt"
	"math"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/mle"
	"geompc/internal/optimize"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// Re-exported kernel constructors.

// SqExp2D returns the 2D squared-exponential covariance (θ = σ², β).
func SqExp2D() geo.Kernel { return geo.SqExp{Dimension: 2} }

// SqExp3D returns the 3D squared-exponential covariance (θ = σ², β).
func SqExp3D() geo.Kernel { return geo.SqExp{Dimension: 3} }

// Matern2D returns the 2D Matérn covariance (θ = σ², β, ν).
func Matern2D() geo.Kernel { return geo.Matern{Dimension: 2} }

// Machine selects the simulated hardware.
type Machine struct {
	Node  *hw.NodeSpec
	Ranks int // number of processes (nodes)
	GPUs  int // GPUs per rank (0 = all of the node's)
}

// OneV100 is a single Summit V100; the paper's default single-GPU target.
func OneV100() Machine { return Machine{Node: hw.SummitNode, Ranks: 1, GPUs: 1} }

// OneA100 is a single Guyot A100.
func OneA100() Machine { return Machine{Node: hw.GuyotNode, Ranks: 1, GPUs: 1} }

// OneH100 is a single Haxane H100.
func OneH100() Machine { return Machine{Node: hw.HaxaneNode, Ranks: 1, GPUs: 1} }

// Summit returns `nodes` Summit nodes with all 6 GPUs each.
func Summit(nodes int) Machine { return Machine{Node: hw.SummitNode, Ranks: nodes} }

// Platform realizes the runtime platform.
func (m Machine) Platform() (*runtime.Platform, error) {
	n := m.Node
	if n == nil {
		n = hw.SummitNode
	}
	r := m.Ranks
	if r == 0 {
		r = 1
	}
	return runtime.NewPlatform(n, r, m.GPUs)
}

// Options tunes a fit or a factorization.
type Options struct {
	// UReq is the application-required accuracy driving the tile precision
	// map (paper: 1e-4 for 2D-sqexp, 1e-9 for 2D-Matérn, 1e-8 for
	// 3D-sqexp). 0 disables mixed precision (exact FP64).
	UReq float64
	// TileSize (default 64 for numeric runs; the paper uses 2048 on GPUs).
	TileSize int
	// ForceTTC disables the automated sender-side conversion, always
	// converting at the receiver — the baseline of Fig 8.
	ForceTTC bool
	// Machine to simulate on (default one V100).
	Machine Machine
	// Nugget regularizes the covariance diagonal (default 1e-8).
	Nugget float64
	// MaxEvals bounds likelihood evaluations during fitting (default 600).
	MaxEvals int
}

// validate rejects a UReq the precision rule cannot use — NaN, ±Inf or
// negative — rather than running it as exact FP64.
func (o Options) validate() error {
	if math.IsNaN(o.UReq) || math.IsInf(o.UReq, 0) || o.UReq < 0 {
		return fmt.Errorf("core: u_req must be 0 (exact FP64) or finite and positive, got %g", o.UReq)
	}
	return nil
}

func (o Options) strategy() cholesky.Strategy {
	if o.ForceTTC {
		return cholesky.ForceTTC
	}
	return cholesky.Auto
}

func (o Options) nugget() float64 {
	if o.Nugget == 0 {
		return 1e-8
	}
	return o.Nugget
}

func (o Options) tileSize() int {
	if o.TileSize <= 0 {
		return 64
	}
	return o.TileSize
}

// Dataset is a set of observed locations and values.
type Dataset struct {
	Locs   []geo.Point
	Z      []float64
	Kernel geo.Kernel
}

// GenerateDataset draws a synthetic Gaussian random field of n locations in
// dim dimensions from kernel at theta — the Monte-Carlo data generator of
// §VII-B. The seed makes the dataset reproducible.
func GenerateDataset(n, dim int, kernel geo.Kernel, theta []float64, seed uint64) (*Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one location, got n=%d", n)
	}
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("core: unsupported dimension %d (want 2 or 3)", dim)
	}
	if len(theta) != kernel.NumParams() {
		return nil, fmt.Errorf("core: kernel %s needs %d parameters, got %d",
			kernel.Name(), kernel.NumParams(), len(theta))
	}
	rng := stats.NewRNG(seed, 0)
	locs := geo.GenerateLocations(n, dim, rng)
	z, err := geo.SimulateField(locs, kernel, theta, 1e-8, rng)
	if err != nil {
		return nil, err
	}
	return &Dataset{Locs: locs, Z: z, Kernel: kernel}, nil
}

// FitReport is the outcome of Fit: the estimates plus the simulated cost of
// obtaining them.
type FitReport struct {
	Theta      []float64
	ParamNames []string
	NegLogLik  float64
	Converged  bool

	// Simulated execution totals across the factorizations the fit ran:
	// one per distinct θ (the optimizer does not re-run a θ it has already
	// evaluated), not one per optimizer step.
	Evaluations int
	Time        float64 // seconds of simulated machine time
	Energy      float64 // joules
	GflopsPerW  float64
	BytesH2D    int64
	BytesNet    int64
}

// ErrNoFiniteEvaluation is Fit's error when the likelihood was +Inf at every
// θ the optimizer tried, so there is no estimate to report.
var ErrNoFiniteEvaluation = errors.New("core: no likelihood evaluation was finite")

// Fit estimates the kernel parameters of ds by maximum likelihood using the
// adaptive mixed-precision Cholesky.
func Fit(ds *Dataset, opts Options) (*FitReport, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat, err := opts.Machine.Platform()
	if err != nil {
		return nil, err
	}
	p := &mle.Problem{
		Locs: ds.Locs, Z: ds.Z, Kernel: ds.Kernel,
		Nugget:   opts.nugget(),
		TileSize: opts.tileSize(),
		UReq:     opts.UReq,
		Platform: plat,
		Strategy: opts.strategy(),
	}
	start, lo, hi := mle.DefaultBounds(ds.Kernel.NumParams())
	maxEvals := opts.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 600
	}
	fit, err := mle.Fit(p, start, lo, hi, optimize.Options{Tol: 1e-9, MaxEvals: maxEvals})
	if err != nil {
		return nil, err
	}
	if math.IsInf(fit.NegLogLik, 1) {
		return nil, fmt.Errorf("%w (%d evaluations at u_req %g)", ErrNoFiniteEvaluation, fit.Stats.Evaluations, opts.UReq)
	}
	rep := &FitReport{
		Theta:       fit.Theta,
		ParamNames:  ds.Kernel.ParamNames(),
		NegLogLik:   fit.NegLogLik,
		Converged:   fit.Converged,
		Evaluations: fit.Stats.Evaluations,
		Time:        fit.Stats.Time,
		Energy:      fit.Stats.Energy,
		BytesH2D:    fit.Stats.BytesH2D,
		BytesNet:    fit.Stats.BytesNet,
	}
	if fit.Stats.Energy > 0 {
		rep.GflopsPerW = fit.Stats.Flops / 1e9 / fit.Stats.Energy
	}
	return rep, nil
}

// Predict computes the conditional mean of the fitted field at targets.
func Predict(ds *Dataset, theta []float64, targets []geo.Point, opts Options) ([]float64, error) {
	p := &mle.Problem{Locs: ds.Locs, Z: ds.Z, Kernel: ds.Kernel, Nugget: opts.nugget()}
	return mle.Predict(p, theta, targets)
}

// Projection reports the simulated execution of one factorization.
type Projection struct {
	N           int
	Gflops      float64
	Time        float64
	Energy      float64
	GflopsPerW  float64
	AvgPower    float64
	BytesH2D    int64
	BytesNet    int64
	STCTasks    int
	CommTasks   int
	TilesByPrec map[prec.Precision]int
}

// ProjectFactorization simulates (phantom mode) one adaptive MP Cholesky of
// an n×n covariance built from kernel/theta on the configured machine, with
// sampled tile norms — the tool behind the paper's performance figures.
func ProjectFactorization(n int, kernel geo.Kernel, theta []float64, opts Options, seed uint64) (*Projection, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat, err := opts.Machine.Platform()
	if err != nil {
		return nil, err
	}
	ts := opts.TileSize
	if ts <= 0 {
		ts = 2048
	}
	pg, qg := tile.SquarestGrid(plat.Ranks)
	desc, err := tile.NewDesc(n, ts, pg, qg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed, 1)
	locs := geo.GenerateLocations(n, kernel.Dim(), rng)
	var km [][]prec.Precision
	if opts.UReq > 0 {
		normFn, global := precmap.EstimateTileNorms(locs, desc, kernel, theta, opts.nugget(), 128, rng)
		km = precmap.NewKernelMap(desc.NT, normFn, global, opts.UReq, prec.CholeskySet)
	} else {
		km = precmap.UniformAll(desc.NT, prec.FP64)
	}
	maps := precmap.New(km, opts.UReq)
	res, err := cholesky.Run(cholesky.Config{
		Desc: desc, Maps: maps, Platform: plat, Strategy: opts.strategy(),
	})
	if err != nil {
		return nil, err
	}
	return &Projection{
		N:           n,
		Gflops:      res.Stats.Flops / 1e9,
		Time:        res.Stats.Makespan,
		Energy:      res.Stats.Energy,
		GflopsPerW:  res.Stats.TotalFlops / 1e9 / res.Stats.Energy,
		AvgPower:    res.Stats.AvgPower,
		BytesH2D:    res.Stats.BytesH2D,
		BytesNet:    res.Stats.BytesNet,
		STCTasks:    res.STCTasks,
		CommTasks:   res.CommTasks,
		TilesByPrec: maps.Counts(),
	}, nil
}
