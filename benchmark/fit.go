package main

import (
	"fmt"
	"math"
	"time"

	"geompc/internal/cholesky"
	"geompc/internal/core"
	"geompc/internal/geo"
	"geompc/internal/mle"
	"geompc/internal/prec"
	"geompc/internal/stats"
)

// fitWorkload is fit_matern and fit_sqexp: one operation is one core.Fit
// of a synthetic dataset under an evaluation budget. The budget is what
// lets a run hold several fits, and it makes every fit nearly the same
// number of evaluations (the optimizer spends it all, give or take a few),
// so wall_s does not follow the length of one dataset's optimizer path.
// README.md says how the budgets were chosen.
type fitWorkload struct {
	n      int
	kernel geo.Kernel
	truth  []float64
	opts   core.Options // explicit tile size, nugget and budget: the traced twin needs the same values
	gapTol float64      // largest accepted |NLL − NLL_dense| / |NLL_dense|
	inputs int          // datasets per run

	pool       []*fitEntry
	checked    bool // the bit-equality probe ran
	traces     []*fitTrace
	simulateMS []float64
	locateMS   []float64
}

// fitEntry is one dataset of the run's pool.
type fitEntry struct {
	ds   *core.Dataset
	prob *mle.Problem // the problem core.Fit builds for ds
	sim  mle.RunStats // of one NegLogLik(θ_true)
	// The first fit's outcome; every later fit of this dataset, traced or
	// not, must repeat it bit for bit.
	theta []float64
	nll   float64
}

func (w *fitWorkload) setup(seed uint64) error {
	// core.GenerateDataset's two steps, timed apart.
	d, err := drawDataset(w.n, 2, w.kernel, w.truth, 1e-8, stats.NewRNG(seed, 0))
	if err != nil {
		return err
	}
	w.locateMS = append(w.locateMS, ms(d.locate))
	w.simulateMS = append(w.simulateMS, ms(d.simulate))
	ds := &core.Dataset{Locs: d.locs, Z: d.z, Kernel: w.kernel}
	plat, err := w.opts.Machine.Platform()
	if err != nil {
		return err
	}
	e := &fitEntry{ds: ds, prob: &mle.Problem{
		Locs: ds.Locs, Z: ds.Z, Kernel: ds.Kernel,
		Nugget: w.opts.Nugget, TileSize: w.opts.TileSize, UReq: w.opts.UReq,
		Ladder: prec.CholeskySet, Platform: plat, Strategy: cholesky.Auto,
	}}
	// One evaluation at the true θ warms the process up and yields the
	// simulated quantities: of one factorization, so that a change to the
	// optimizer's path cannot pass for a change to the model.
	nll, err := e.prob.NegLogLik(w.truth, &e.sim)
	if err != nil {
		return err
	}
	if math.IsInf(nll, 0) {
		return fmt.Errorf("Σ(θ_true) is not SPD for seed %d", seed)
	}
	w.pool = append(w.pool, e)
	return nil
}

func (w *fitWorkload) op(i int, tr *tracer) (int, error) {
	e := w.pool[i]
	var theta []float64
	var nll float64
	var evals int
	if tr == nil {
		rep, err := core.Fit(e.ds, w.opts)
		if err != nil {
			return 0, err
		}
		theta, nll, evals = rep.Theta, rep.NegLogLik, rep.Evaluations
	} else {
		th, v, ft, err := tracedFit(tr, -1, e.prob, w.opts.MaxEvals, !w.checked)
		w.checked = true
		if err != nil {
			return len(ft.thetas), err
		}
		w.traces = append(w.traces, ft)
		theta, nll, evals = th, v, len(ft.thetas)
	}
	if math.IsInf(nll, 0) || math.IsNaN(nll) {
		return evals, fmt.Errorf("fit returned a non-finite likelihood %v", nll)
	}
	if e.theta == nil {
		e.theta, e.nll = theta, nll
	} else if !sameBits(theta, e.theta) || math.Float64bits(nll) != math.Float64bits(e.nll) {
		return evals, fmt.Errorf("fit of dataset %d gave θ̂=%v NLL=%v, an earlier fit θ̂=%v NLL=%v", i, theta, nll, e.theta, e.nll)
	}
	return evals, nil
}

// verify compares every fitted dataset's reported likelihood with the
// dense FP64 oracle at θ̂.
func (w *fitWorkload) verify() (gap float64, bad map[int]error) {
	bad = map[int]error{}
	for i, e := range w.pool {
		if e.theta == nil {
			continue
		}
		dense, err := denseNLL(e.ds.Locs, e.ds.Z, w.kernel, e.theta, w.opts.Nugget)
		if err != nil {
			bad[i] = err
			continue
		}
		g := math.Abs(e.nll-dense) / math.Abs(dense)
		gap = math.Max(gap, g)
		if !(g <= w.gapTol) {
			bad[i] = fmt.Errorf("dataset %d: reported NLL %v vs dense oracle %v at θ̂=%v: gap %.3g > %.3g", i, e.nll, dense, e.theta, g, w.gapTol)
		}
	}
	return gap, bad
}

func (w *fitWorkload) sim() simTotals {
	var t simTotals
	for _, e := range w.pool {
		t.add(e.sim)
	}
	return t
}

// dataset is one synthetic field and what its two steps cost.
type dataset struct {
	locs             []geo.Point
	z                []float64
	locate, simulate time.Duration
}

// drawDataset places n locations and simulates the field over them from
// rng, as core.GenerateDataset and mle.MonteCarlo's replicas do.
func drawDataset(n, dim int, k geo.Kernel, theta []float64, nugget float64, rng *stats.RNG) (dataset, error) {
	t0 := time.Now()
	locs := geo.GenerateLocations(n, dim, rng)
	t1 := time.Now()
	z, err := geo.SimulateField(locs, k, theta, nugget, rng)
	return dataset{locs, z, t1.Sub(t0), time.Since(t1)}, err
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
