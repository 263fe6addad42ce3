package main

import (
	"fmt"
	"math"
	"sync"

	"geompc/internal/bench"
	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/mle"
	"geompc/internal/prec"
	"geompc/internal/runtime"
	"geompc/internal/stats"
)

// mcWorkload is mc_matern: one operation is the Monte-Carlo accuracy study
// of one Fig 5 panel — replicas datasets, each fitted at every accuracy
// level, spread over GOMAXPROCS workers by mle.MonteCarlo. It calls
// mle.MonteCarlo with the configuration bench.AccuracyStudyEvals builds
// (and cmd/accuracy runs) because only the MCResult carries the evaluation
// count evals_per_s needs.
type mcWorkload struct {
	c        bench.AccuracyCase
	levels   []float64 // exact FP64 first
	replicas int
	n, ts    int
	maxEvals int
	gapTol   float64 // largest accepted relative difference between levels' estimates

	pool       []*mcEntry
	checked    bool
	mu         sync.Mutex // the traced study's workers append to the three below
	traces     []*fitTrace
	simulateMS []float64
	locateMS   []float64
}

type mcEntry struct {
	seed uint64
	sim  mle.RunStats  // Σ over replicas of one NegLogLik(θ_true) at the last level
	est  [][][]float64 // [level][param][replica] of the first study; later ones must repeat it
}

const mcNugget = 1e-7 // bench.AccuracyStudyEvals' value

func (w *mcWorkload) config(seed uint64) mle.MCConfig {
	return mle.MCConfig{
		Replicas: w.replicas, N: w.n, Dim: w.c.Dim, Kernel: w.c.Kernel,
		TrueTheta: w.c.TrueTheta, UReqs: w.levels, Nugget: mcNugget,
		TileSize: w.ts, Seed: seed, MaxEvals: w.maxEvals,
	}
}

// replica draws replica r's dataset exactly as mle.MonteCarlo does, records
// what that cost, and returns the problem it fits at accuracy level ureq.
func (w *mcWorkload) replica(seed uint64, r int, ureq float64, plat *runtime.Platform) (*mle.Problem, error) {
	d, err := drawDataset(w.n, w.c.Dim, w.c.Kernel, w.c.TrueTheta, mcNugget, stats.NewRNG(seed, uint64(r)))
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.locateMS = append(w.locateMS, ms(d.locate))
	w.simulateMS = append(w.simulateMS, ms(d.simulate))
	w.mu.Unlock()
	return &mle.Problem{
		Locs: d.locs, Z: d.z, Kernel: w.c.Kernel, Nugget: mcNugget,
		TileSize: w.ts, UReq: ureq, Ladder: prec.CholeskySet,
		Platform: plat, Strategy: cholesky.Auto,
	}, nil
}

// oneV100 is the platform mle.Problem defaults to.
func oneV100() (*runtime.Platform, error) { return runtime.NewPlatform(hw.SummitNode, 1, 1) }

func (w *mcWorkload) setup(seed uint64) error {
	e := &mcEntry{seed: seed}
	plat, err := oneV100()
	if err != nil {
		return err
	}
	for r := 0; r < w.replicas; r++ {
		p, err := w.replica(e.seed, r, w.levels[len(w.levels)-1], plat)
		if err != nil {
			return err
		}
		nll, err := p.NegLogLik(w.c.TrueTheta, &e.sim)
		if err != nil {
			return err
		}
		if math.IsInf(nll, 0) {
			return fmt.Errorf("Σ(θ_true) is not SPD for seed %d replica %d", e.seed, r)
		}
	}
	w.pool = append(w.pool, e)
	return nil
}

func (w *mcWorkload) op(i int, tr *tracer) (int, error) {
	e := w.pool[i]
	var est [][][]float64
	evals := 0
	if tr == nil {
		mcs, err := mle.MonteCarlo(w.config(e.seed))
		if err != nil {
			return 0, err
		}
		for _, mc := range mcs {
			if mc.Failed > 0 {
				return evals, fmt.Errorf("%d replicas failed at u_req=%g", mc.Failed, mc.UReq)
			}
			est = append(est, mc.Estimates)
			evals += mc.Stats.Evaluations
		}
	} else {
		var err error
		if est, evals, err = w.tracedStudy(tr, e.seed); err != nil {
			return evals, err
		}
	}
	if e.est == nil {
		e.est = est
		return evals, nil
	}
	for l := range est {
		for p := range est[l] {
			if !sameBits(est[l][p], e.est[l][p]) {
				return evals, fmt.Errorf("study of seed %d gave estimates %v, an earlier one %v", e.seed, est[l][p], e.est[l][p])
			}
		}
	}
	return evals, nil
}

// tracedStudy is mle.MonteCarlo done from outside: per level, the replicas
// go to GOMAXPROCS workers, each drawing its dataset and running the
// traced fit.
func (w *mcWorkload) tracedStudy(tr *tracer, seed uint64) ([][][]float64, int, error) {
	plat, err := oneV100()
	if err != nil {
		return nil, 0, err
	}
	check := !w.checked
	w.checked = true
	np := w.c.Kernel.NumParams()
	var est [][][]float64
	evals := 0
	for _, ureq := range w.levels {
		thetas := make([][]float64, w.replicas)
		errs := make([]error, w.replicas)
		counts := make([]int, w.replicas)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < w.shape().parallel; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range jobs {
					root := tr.begin("glue.replica", -1)
					var p *mle.Problem
					tr.in("geo.simulate", root, func() { p, errs[r] = w.replica(seed, r, ureq, plat) })
					if errs[r] == nil {
						var ft *fitTrace
						thetas[r], _, ft, errs[r] = tracedFit(tr, root, p, w.maxEvals, check && r == 0)
						counts[r] = len(ft.thetas)
						w.mu.Lock()
						w.traces = append(w.traces, ft)
						w.mu.Unlock()
					}
					tr.end(root)
				}
			}()
		}
		for r := 0; r < w.replicas; r++ {
			jobs <- r
		}
		close(jobs)
		wg.Wait()
		level := make([][]float64, np)
		for r := 0; r < w.replicas; r++ {
			evals += counts[r]
			if errs[r] != nil {
				return nil, evals, fmt.Errorf("replica %d at u_req=%g: %w", r, ureq, errs[r])
			}
			for p := 0; p < np; p++ {
				level[p] = append(level[p], thetas[r][p])
			}
		}
		est = append(est, level)
	}
	return est, evals, nil
}

// verify reports the paper's "1e-9 ≈ exact": the largest relative
// difference between any level's per-replica estimates and the exact ones.
func (w *mcWorkload) verify() (gap float64, bad map[int]error) {
	bad = map[int]error{}
	for i, e := range w.pool {
		if e.est == nil {
			continue
		}
		g := 0.0
		for l := 1; l < len(e.est); l++ {
			for p := range e.est[l] {
				for r, v := range e.est[l][p] {
					exact := e.est[0][p][r]
					g = math.Max(g, math.Abs(v-exact)/math.Abs(exact))
				}
			}
		}
		gap = math.Max(gap, g)
		if !(g <= w.gapTol) {
			bad[i] = fmt.Errorf("seed %d: estimates at u_req>0 differ from exact by %.3g > %.3g", e.seed, g, w.gapTol)
		}
	}
	return gap, bad
}

func (w *mcWorkload) sim() simTotals {
	var t simTotals
	for _, e := range w.pool {
		t.add(e.sim)
	}
	return t
}
