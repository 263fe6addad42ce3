package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"geompc/internal/bench"
	"geompc/internal/bessel"
	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/mle"
	"geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// The measurements here are made after the timed region of a traced run,
// on inputs taken from the run's own trajectory. They answer questions no
// span can: what one bessel.K call costs at the arguments this workload
// uses, and what the layers no workload reaches (plan cache, parallel DES,
// sweep pool) would do with this workload's work.

// trajectoryExtras fills the per-layer metrics derived from the traced
// fits' trajectories. ops is the number of traced operations behind them.
func trajectoryExtras(out map[string]float64, p *mle.Problem, traces []*fitTrace, ops int, seed uint64) error {
	if len(traces) == 0 || ops == 0 {
		return nil
	}
	n := len(p.Locs)
	var thetas [][]float64
	dups, rejected, mapped := 0, 0, 0
	var fracs [prec.Count]float64
	stc := 0.0
	for _, ft := range traces {
		// Duplicates are counted within one fit: that is the scope of
		// optimize.Options.Memoize.
		seen := map[string]bool{}
		for _, th := range ft.thetas {
			key := fmt.Sprintf("%x", th) // hexadecimal floats: equal keys, equal bits
			if seen[key] {
				dups++
			}
			seen[key] = true
		}
		thetas = append(thetas, ft.thetas...)
		rejected += ft.rejected
		mapped += ft.mapped
		stc += ft.stc
		for i, f := range ft.fracs {
			fracs[i] += f
		}
	}
	entries := traces[0].entries
	out["geo.entries"] = float64(entries)
	out["optimize.rejected"] = float64(rejected) / float64(ops)
	out["optimize.dup_frac"] = float64(dups) / float64(len(thetas))
	out["precmap.frac_fp64"] = fracs[prec.FP64] / float64(mapped)
	out["precmap.frac_fp32"] = fracs[prec.FP32] / float64(mapped)
	out["precmap.frac_fp16x32"] = fracs[prec.FP16x32] / float64(mapped)
	out["precmap.frac_fp16"] = fracs[prec.FP16] / float64(mapped)
	out["precmap.stc_frac"] = stc / float64(mapped)

	besselExtras(out, p, thetas, entries-n, seed)
	return planExtras(out, p, traces[0].thetas)
}

// besselSink keeps the micro-loop's calls from being optimised away.
var besselSink float64

// besselExtras times bessel.K on (ν, r/β) pairs drawn from the trajectory:
// up to 64 of its θ, 256 location pairs each. offDiag is the number of
// off-diagonal elements one evaluation generates — each costs one call,
// unless the kernel takes the closed-form ν = 0.5 path or is not Matérn.
func besselExtras(out map[string]float64, p *mle.Problem, thetas [][]float64, offDiag int, seed uint64) {
	if _, ok := p.Kernel.(geo.Matern); !ok {
		return
	}
	var general [][]float64
	for _, th := range thetas {
		if th[2] != 0.5 {
			general = append(general, th)
		}
	}
	out["bessel.calls_per_eval"] = float64(offDiag) * float64(len(general)) / float64(len(thetas))
	if len(general) == 0 {
		return
	}
	rng := stats.NewRNG(seed, 7)
	var nus, xs []float64
	step := (len(general) + 63) / 64
	for i := 0; i < len(general); i += step {
		th := general[i]
		for k := 0; k < 256; k++ {
			a, b := rng.IntN(len(p.Locs)), rng.IntN(len(p.Locs))
			if a == b {
				continue
			}
			nus = append(nus, th[2])
			xs = append(xs, p.Locs[a].Dist(p.Locs[b])/th[1])
		}
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for i := range xs {
			besselSink += bessel.K(nus[i], xs[i])
		}
		calls += len(xs)
	}
	ns := float64(time.Since(t0)) / float64(calls)
	out["bessel.k_ns"] = ns
	if cov := out["geo.covtile_ms"]; cov > 0 {
		out["bessel.share"] = out["bessel.calls_per_eval"] * ns / (cov * 1e6)
	}
}

// planEvals bounds the plan-cache re-run: each evaluation costs a whole
// numeric factorization.
const planEvals = 16

// planExtras re-runs the opening of the trajectory through
// cholesky.RunCached with one plan.Cache, as mle.Problem would with
// PlanCache set, and times compiles (misses, invalidations) and replays
// (hits) apart.
func planExtras(out map[string]float64, p *mle.Problem, thetas [][]float64) error {
	if len(thetas) > planEvals {
		thetas = thetas[:planEvals]
	}
	cache := plan.NewCache(nil)
	pg, qg := tile.SquarestGrid(p.Platform.Ranks)
	desc, err := tile.NewDesc(len(p.Locs), p.TileSize, pg, qg)
	if err != nil {
		return err
	}
	var compile, replay []float64
	for _, th := range thetas {
		mat := tile.NewMatrix(desc, false)
		mat.Fill(func(t *tile.Tile, r0, c0 int) {
			geo.CovTile(p.Locs, r0, c0, t.M, t.N, p.Kernel, th, p.Nugget, t.Data, t.N)
		})
		km := precmap.UniformAll(desc.NT, prec.FP64)
		if p.UReq > 0 {
			km = precmap.FromMatrix(mat, p.UReq, p.Ladder)
		}
		maps := precmap.New(km, p.UReq)
		mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
		hits := cache.Stats().Hits
		t0 := time.Now()
		_, err := cholesky.RunCached(cholesky.Config{
			Desc: desc, Maps: maps, Platform: p.Platform, Matrix: mat, Strategy: p.Strategy,
		}, cache)
		d := ms(time.Since(t0))
		if err != nil {
			return err
		}
		if cache.Stats().Hits > hits {
			replay = append(replay, d)
		} else {
			compile = append(compile, d)
		}
	}
	st := cache.Stats()
	out["plan.compile_ms"] = median(compile)
	out["plan.replay_ms"] = median(replay)
	out["plan.hit_frac"] = float64(st.Hits) / float64(len(thetas))
	out["plan.invalidated_frac"] = float64(st.Invalidations) / float64(len(thetas))
	return nil
}

func (w *fitWorkload) extras(out map[string]float64, ops int, seed uint64) error {
	out["geo.simulate_ms"] = median(w.simulateMS)
	out["geo.locations_ms"] = median(w.locateMS)
	return trajectoryExtras(out, w.pool[0].prob, w.traces, ops, seed)
}

func (w *mcWorkload) extras(out map[string]float64, ops int, seed uint64) error {
	out["geo.simulate_ms"] = median(w.simulateMS)
	out["geo.locations_ms"] = median(w.locateMS)
	plat, err := oneV100()
	if err != nil {
		return err
	}
	p, err := w.replica(w.pool[0].seed, 0, w.levels[len(w.levels)-1], plat)
	if err != nil {
		return err
	}
	return trajectoryExtras(out, p, w.traces, ops, seed)
}

// extras measures the two parallel layers no workload reaches: the
// conservative parallel DES engine on this workload's FP64 factorization,
// and the sweep pool on a Fig 11 conversion sweep. Both must reproduce
// their serial results exactly.
func (w *projectWorkload) extras(out map[string]float64, ops int, seed uint64) error {
	out["precmap.frac_fp64"] = w.fracs[prec.FP64]
	out["precmap.frac_fp32"] = w.fracs[prec.FP32]
	out["precmap.frac_fp16x32"] = w.fracs[prec.FP16x32]
	out["precmap.frac_fp16"] = w.fracs[prec.FP16]
	out["precmap.stc_frac"] = w.stc

	nproc := goruntime.GOMAXPROCS(0)
	plat, err := w.machine.Platform()
	if err != nil {
		return err
	}
	pg, qg := tile.SquarestGrid(plat.Ranks)
	desc, err := tile.NewDesc(w.n, w.ts, pg, qg)
	if err != nil {
		return err
	}
	cfg := cholesky.Config{
		Desc: desc, Maps: precmap.New(precmap.UniformAll(desc.NT, prec.FP64), 0),
		Platform: plat, Strategy: cholesky.Auto,
	}
	timeRun := func(workers int) (float64, uint64, error) {
		cfg.EngineWorkers = workers
		t0 := time.Now()
		res, err := cholesky.Run(cfg)
		if err != nil {
			return 0, 0, err
		}
		return time.Since(t0).Seconds(), res.Digest(), nil
	}
	serial, want, err := timeRun(0)
	if err != nil {
		return err
	}
	parallel, got, err := timeRun(nproc)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("parallel DES digest %016x differs from serial %016x", got, want)
	}
	out["runtime.des_speedup"] = serial / parallel

	sweep := func(workers int) (float64, []bench.ConvRow, error) {
		t0 := time.Now()
		rows, err := bench.ConvSweepOpts(hw.SummitNode, 1, 0, sweepSizes, 2048, "",
			bench.SchedOpts{SweepOpts: bench.SweepOpts{Workers: workers}})
		return time.Since(t0).Seconds(), rows, err
	}
	serial, rows, err := sweep(0)
	if err != nil {
		return err
	}
	parallel, prows, err := sweep(nproc)
	if err != nil {
		return err
	}
	if len(rows) != len(prows) {
		return fmt.Errorf("parallel sweep gave %d rows, serial %d", len(prows), len(rows))
	}
	for i := range rows {
		if rows[i] != prows[i] {
			return fmt.Errorf("parallel sweep row %d = %+v, serial %+v", i, prows[i], rows[i])
		}
	}
	out["sweep.speedup"] = serial / parallel
	return nil
}

// sweepSizes are the matrix sizes of the sweep.speedup probe: 24 grid
// points of NT ≤ 20 on one six-GPU node.
var sweepSizes = []int{16384, 24576, 32768, 40960}
