package main

import (
	"fmt"
	"math"

	"geompc/internal/bench"
	"geompc/internal/cholesky"
	"geompc/internal/core"
	"geompc/internal/geo"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// projectWorkload is project_scale: one operation projects the paper's
// three applications plus an FP64 baseline through the simulator at Summit
// scale, in phantom mode. It has no hardware reference in the sandbox, so
// it reports no accuracy; its correctness check is determinism — every
// repetition must reproduce the first bit for bit, and the traced
// pipeline must reproduce core.ProjectFactorization.
type projectWorkload struct {
	n, ts   int
	machine core.Machine
	apps    []bench.App // the FP64 baseline last

	pool  []*projectEntry
	fracs [prec.Count]float64 // of the first input's maps, averaged over the apps
	stc   float64
}

// projectEntry is one input: a seed, which places the locations and draws
// the tile-norm samples.
type projectEntry struct {
	seed    uint64
	ref     []*core.Projection // first repetition, one per app
	digests []uint64           // first traced repetition's schedule digests
}

func newProjectWorkload(n, ts, nodes int) *projectWorkload {
	apps := bench.Apps()
	fp64 := apps[0]
	fp64.Name, fp64.UReq = "FP64 baseline", 0
	return &projectWorkload{n: n, ts: ts, machine: core.Summit(nodes), apps: append(apps, fp64)}
}

func (w *projectWorkload) options(a bench.App) core.Options {
	return core.Options{UReq: a.UReq, TileSize: w.ts, Machine: w.machine, Nugget: 1e-8}
}

// setup builds the platform and projects the FP64 baseline once, which
// lets the allocator and the engine's pools reach their working size
// before anything is timed.
func (w *projectWorkload) setup(seed uint64) error {
	if _, err := w.machine.Platform(); err != nil {
		return err
	}
	a := w.apps[len(w.apps)-1]
	if _, err := core.ProjectFactorization(w.n, a.Kernel, a.Theta, w.options(a), seed); err != nil {
		return err
	}
	w.pool = append(w.pool, &projectEntry{seed: seed})
	return nil
}

func (w *projectWorkload) op(i int, tr *tracer) (int, error) {
	e := w.pool[i]
	for k, a := range w.apps {
		if tr != nil {
			if err := w.tracedProjection(tr, e, k, a); err != nil {
				return k, err
			}
			continue
		}
		p, err := core.ProjectFactorization(w.n, a.Kernel, a.Theta, w.options(a), e.seed)
		if err != nil {
			return k, err
		}
		if len(e.ref) <= k {
			e.ref = append(e.ref, p)
		} else if !sameProjection(p, e.ref[k]) {
			return k, fmt.Errorf("%s: repetition gave %+v, the first %+v", a.Name, *p, *e.ref[k])
		}
	}
	return len(w.apps), nil
}

func sameProjection(a, b *core.Projection) bool {
	if len(a.TilesByPrec) != len(b.TilesByPrec) {
		return false
	}
	for p, n := range a.TilesByPrec {
		if b.TilesByPrec[p] != n {
			return false
		}
	}
	return math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		math.Float64bits(a.Energy) == math.Float64bits(b.Energy) &&
		a.BytesH2D == b.BytesH2D && a.BytesNet == b.BytesNet &&
		a.STCTasks == b.STCTasks && a.CommTasks == b.CommTasks
}

// tracedProjection performs core.ProjectFactorization's steps one public
// call at a time. The factorization is a phantom run, so the engine's
// share is the run minus a second build of the task graph (a probe).
func (w *projectWorkload) tracedProjection(tr *tracer, e *projectEntry, k int, a bench.App) error {
	root := tr.begin("glue.projection", -1)
	defer tr.end(root)
	opts := w.options(a)
	var err error
	var desc tile.Desc
	var maps *precmap.Maps
	var cfg cholesky.Config
	tr.in("runtime.platform", root, func() {
		if cfg.Platform, err = opts.Machine.Platform(); err != nil {
			return
		}
		pg, qg := tile.SquarestGrid(cfg.Platform.Ranks)
		desc, err = tile.NewDesc(w.n, w.ts, pg, qg)
	})
	if err != nil {
		return err
	}
	rng := stats.NewRNG(e.seed, 1)
	var locs []geo.Point
	tr.in("geo.locations", root, func() { locs = geo.GenerateLocations(w.n, a.Kernel.Dim(), rng) })
	tr.in("precmap.estimate", root, func() {
		var km [][]prec.Precision
		if a.UReq > 0 {
			normFn, global := precmap.EstimateTileNorms(locs, desc, a.Kernel, a.Theta, opts.Nugget, 128, rng)
			km = precmap.NewKernelMap(desc.NT, normFn, global, a.UReq, prec.CholeskySet)
		} else {
			km = precmap.UniformAll(desc.NT, prec.FP64)
		}
		maps = precmap.New(km, a.UReq)
	})
	cfg.Desc, cfg.Maps, cfg.Strategy = desc, maps, cholesky.Auto
	var res *cholesky.Result
	tr.in("cholesky.run", root, func() { res, err = cholesky.Run(cfg) })
	if err != nil {
		return err
	}
	tr.in("probe.graph", root, func() { _, err = cholesky.PlanGraph(cfg) })
	if err != nil {
		return err
	}

	if len(e.digests) <= k {
		e.digests = append(e.digests, res.Digest())
		if e == w.pool[0] {
			for pr, f := range maps.Fractions() {
				w.fracs[pr] += f / float64(len(w.apps))
			}
			if stc, total := maps.STCCount(); total > 0 {
				w.stc += float64(stc) / float64(total) / float64(len(w.apps))
			}
		}
	} else if res.Digest() != e.digests[k] {
		return fmt.Errorf("%s: traced schedule digest %016x, first traced repetition %016x", a.Name, res.Digest(), e.digests[k])
	}
	if k < len(e.ref) {
		got := &core.Projection{
			Time: res.Stats.Makespan, Energy: res.Stats.Energy,
			BytesH2D: res.Stats.BytesH2D, BytesNet: res.Stats.BytesNet,
			STCTasks: res.STCTasks, CommTasks: res.CommTasks, TilesByPrec: maps.Counts(),
		}
		if !sameProjection(got, e.ref[k]) {
			return fmt.Errorf("%s: traced pipeline gave %+v, core.ProjectFactorization %+v", a.Name, *got, *e.ref[k])
		}
	}
	return nil
}

func (w *projectWorkload) verify() (float64, map[int]error) { return 0, nil }

// sim sums the simulated quantities over the first input's projections
// (every run completes those, however short). Bytes are host-to-device
// plus network: core.Projection does not expose device-to-host traffic.
func (w *projectWorkload) sim() simTotals {
	var s simTotals
	for _, p := range w.pool[0].ref {
		s.makespan += p.Time
		s.energy += p.Energy
		s.bytes += p.BytesH2D + p.BytesNet
	}
	return s
}
