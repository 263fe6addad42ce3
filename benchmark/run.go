package main

import (
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"sort"
	"time"

	"geompc/internal/bench"
	"geompc/internal/cholesky"
	"geompc/internal/core"
	"geompc/internal/mle"
)

// workload is one closed-loop load: a single caller issuing operation
// after operation on a small pool of inputs made from the seed.
type workload interface {
	// setup builds the next of the run's shape().pool inputs from that
	// input's own seed, outside the timed region.
	setup(seed uint64) error
	// op runs one operation on pool entry i and returns the factorizations
	// (likelihood evaluations or projections) it completed. With a nil
	// tracer it goes through the library's public entry point, as a user
	// would; with a tracer it performs that entry point's steps one public
	// call at a time, and must reproduce its result bit for bit.
	op(i int, tr *tracer) (evals int, err error)
	// verify checks outputs after the timed region: it returns the
	// accuracy gap and the pool entries whose operations must count as
	// failed.
	verify() (gap float64, bad map[int]error)
	// sim returns the deterministic simulated totals.
	sim() simTotals
	shape() shape
	// extras adds the per-layer metrics only this workload can measure,
	// after ops traced operations.
	extras(out map[string]float64, ops int, seed uint64) error
}

type simTotals struct {
	makespan, energy float64
	bytes            int64
}

func (t *simTotals) add(s mle.RunStats) {
	t.makespan += s.Time
	t.energy += s.Energy
	t.bytes += s.BytesH2D + s.BytesD2H + s.BytesNet
}

// shape is the size of one factorization, how many run at once, and how
// many inputs a run prepares and cycles through — which is also the number
// of set-ups behind the setup_s median. The Matérn workloads get one input
// per operation of a typical run: what an evaluation costs depends on where
// in θ-space the optimizer goes, so their operations differ by dataset and
// the run's median has to average that out; the other two cost the same on
// every input.
type shape struct{ n, ts, parallel, pool int }

func (s shape) tasks() int {
	nt := (s.n + s.ts - 1) / s.ts
	return nt * (nt + 1) * (nt + 2) / 6
}

func (w *fitWorkload) shape() shape     { return shape{w.n, w.opts.TileSize, 1, w.inputs} }
func (w *projectWorkload) shape() shape { return shape{w.n, w.ts, 1, 3} }
func (w *mcWorkload) shape() shape {
	p := goruntime.GOMAXPROCS(0)
	if p > w.replicas {
		p = w.replicas
	}
	return shape{w.n, w.ts, p, 8}
}

// inputsPerSeed spaces the seeds of a run's inputs; no pool is larger.
const inputsPerSeed = 16

// newWorkload builds a workload at benchmark size, or at the size of the
// package's smoke test.
func newWorkload(name string, tiny bool) (workload, error) {
	matern := core.Options{UReq: 1e-9, TileSize: 64, Nugget: 1e-8, MaxEvals: 60}
	sqexp := core.Options{UReq: 0, TileSize: 64, Nugget: 1e-8, MaxEvals: 24}
	mc := &mcWorkload{
		c: bench.Fig5Cases()[3], levels: []float64{0, 1e-9},
		replicas: 2 * goruntime.GOMAXPROCS(0), n: 196, ts: 49, maxEvals: 60, gapTol: 1e-2,
	}
	nFit, nSq, proj := 400, 1600, newProjectWorkload(262144, 2048, 16)
	if tiny {
		matern.TileSize, matern.MaxEvals, nFit = 16, 24, 64
		sqexp.TileSize, sqexp.MaxEvals, nSq = 16, 16, 96
		mc.replicas, mc.n, mc.ts, mc.maxEvals = 2, 36, 18, 16
		proj = newProjectWorkload(16384, 2048, 2)
	}
	switch name {
	case "fit_matern":
		return &fitWorkload{n: nFit, kernel: core.Matern2D(), truth: []float64{1, 0.03, 1}, opts: matern, gapTol: 1e-6, inputs: 8}, nil
	case "fit_sqexp":
		return &fitWorkload{n: nSq, kernel: core.SqExp2D(), truth: []float64{1, 0.03}, opts: sqexp, gapTol: 1e-6, inputs: 3}, nil
	case "project_scale":
		return proj, nil
	case "mc_matern":
		return mc, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opRec is one operation as the runner saw it.
type opRec struct {
	entry     int
	traced    bool
	wall, cpu float64
	evals     int
	err       error
	probe     float64 // wall seconds of probe spans, traced operations only
	gcCPU     float64
	bytes     uint64 // heap bytes and objects allocated, untraced operations of a traced run
	allocs    uint64
}

// job is one workload being measured.
type job struct {
	name   string
	w      workload
	setupS []float64
	ops    []opRec
	spent  float64 // wall seconds of operations so far
	tr     *tracer
}

func (j *job) step(trace bool) {
	k, pool := len(j.ops), j.w.shape().pool
	rec := opRec{entry: k % pool}
	var tr *tracer
	if trace {
		// Operations come in pairs on the same input, one untraced and one
		// traced, so that a pair differs by the tracing alone; which of the
		// two goes first alternates from pair to pair.
		pair := k / 2
		rec.entry, rec.traced = pair%pool, k%2 != pair%2
	}
	mark := 0
	var m0, m1 goruntime.MemStats
	if rec.traced {
		tr = j.tr
		mark = len(tr.spans)
	} else if trace {
		goruntime.ReadMemStats(&m0)
	}
	gc0 := gcCPUSeconds()
	sw := startWatch()
	rec.evals, rec.err = j.w.op(rec.entry, tr)
	rec.wall, rec.cpu = sw.stop()
	rec.gcCPU = gcCPUSeconds() - gc0
	if rec.traced {
		for _, sp := range tr.spans[mark:] {
			if isProbe(sp.layer) {
				rec.probe += (sp.end - sp.start).Seconds()
			}
		}
		rec.probe /= float64(j.w.shape().parallel)
	} else if trace {
		goruntime.ReadMemStats(&m1)
		rec.bytes, rec.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	}
	j.spent += rec.wall
	j.ops = append(j.ops, rec)
}

// measure sets every job up, then runs their operations round-robin — so
// that slow drift of the host lands on all of them alike — until each has
// spent its seconds.
func measure(jobs []*job, seed uint64, seconds float64, trace bool) error {
	for _, j := range jobs {
		for i := 0; i < j.w.shape().pool; i++ {
			t0 := time.Now()
			// Runs of neighbouring seeds share no input.
			if err := j.w.setup(seed*inputsPerSeed + uint64(i)); err != nil {
				return fmt.Errorf("%s: set-up %d: %w", j.name, i, err)
			}
			j.setupS = append(j.setupS, time.Since(t0).Seconds())
		}
	}
	if trace {
		seconds *= 0.8 // the rest goes to the workloads' extras
	}
	for active := true; active; {
		active = false
		for _, j := range jobs {
			if j.spent < seconds || (trace && len(j.ops)%2 == 1) {
				j.step(trace)
				active = true
			}
		}
	}
	return nil
}

// runResult is one run of one workload, as written to -out files.
type runResult struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// result verifies the job's outputs and turns its records into metrics.
// Failures are explained on errw.
func (j *job) result(seed uint64, seconds float64, trace bool, errw io.Writer) runResult {
	res := runResult{Workload: j.name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]measured{}}
	gap, bad := j.w.verify()
	for i, err := range bad {
		fmt.Fprintf(errw, "%s: FAILED check on input %d: %v\n", j.name, i, err)
	}
	var wall, cpu, rate, util []float64
	tasks := float64(j.w.shape().tasks())
	for _, op := range j.ops {
		res.Attempted++
		if op.err != nil {
			fmt.Fprintf(errw, "%s: FAILED operation: %v\n", j.name, op.err)
		}
		if op.err != nil || bad[op.entry] != nil {
			res.Failed++
		}
		if !op.traced {
			wall = append(wall, op.wall)
			cpu = append(cpu, op.cpu)
			rate = append(rate, float64(op.evals)/op.wall)
			util = append(util, op.cpu/op.wall/float64(goruntime.GOMAXPROCS(0)))
		}
	}
	res.Correct = res.Failed == 0
	sim := j.w.sim()
	m := res.Metrics
	m["setup_s"] = medianOf(j.setupS, "s")
	m["wall_s"] = medianOf(wall, "s")
	m["cpu_s"] = medianOf(cpu, "s")
	m["evals_per_s"] = medianOf(rate, "1/s")
	m["sim_energy_j"] = single(sim.energy, "J")
	m["sim_bytes_moved"] = single(float64(sim.bytes), "B")
	m["fail_frac"] = single(float64(res.Failed)/float64(res.Attempted), "frac")
	m["accuracy_gap"] = single(gap, "frac")
	m["sim_makespan_s"] = single(sim.makespan, "s")
	tps := medianOf(rate, "1/s")
	tps.Value, tps.Q1, tps.Q3 = tps.Value*tasks, tps.Q1*tasks, tps.Q3*tasks
	m["sim_tasks_per_s"] = tps
	if trace {
		layers, err := j.layerMetrics(seed)
		if err != nil {
			fmt.Fprintf(errw, "%s: FAILED per-layer measurement: %v\n", j.name, err)
			res.Correct = false
		}
		layers["host.cpu_util"] = median(util)
		for _, d := range perLayerMetrics {
			if _, ok := m[d.name]; !ok {
				m[d.name] = single(layers[d.name], d.unit) // 0 where the layer is not on this workload's path
			}
		}
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(errw, "%s: FAILED: metric %s is %v\n", j.name, name, v.Value)
			res.Correct = false
			m[name] = single(0, v.Unit)
		}
	}
	return res
}

// layerMetrics derives the per-layer numbers from the job's spans and
// asks the workload for the rest.
func (j *job) layerMetrics(seed uint64) (map[string]float64, error) {
	out := map[string]float64{}
	sum := j.tr.summarize()
	per := func(layer string) float64 { // mean self time of the layer's spans, ms
		if l := sum.layers[layer]; l.spans > 0 {
			return sum.selfMS(layer) / float64(l.spans)
		}
		return 0
	}
	out["tile.alloc_ms"] = per("tile.alloc")
	out["geo.covtile_ms"] = per("geo.covtile")
	out["geo.locations_ms"] = per("geo.locations")
	out["precmap.map_ms"] = per("precmap.map")
	out["precmap.estimate_ms"] = per("precmap.estimate")
	out["mle.solve_ms"] = per("mle.solve")
	out["optimize.self_ms"] = per("optimize")

	// A numeric run is graph build + engine + kernels; the phantom and
	// graph probes separate the three. A phantom run (project_scale) has
	// no kernels and needs only the graph probe.
	sh := j.w.shape()
	graph, run := per("probe.graph"), per("cholesky.run")
	engine, numeric := run-graph, 0.0
	if sum.layers["probe.phantom"].spans > 0 {
		phantom := per("probe.phantom")
		engine, numeric = phantom-graph, run-phantom
	}
	out["cholesky.graph_ms"] = graph
	out["runtime.engine_ms"] = math.Max(engine, 0)
	out["runtime.tasks"] = float64(sh.tasks())
	out["runtime.ns_per_task"] = math.Max(engine, 0) * 1e6 / float64(sh.tasks())
	out["linalg.numeric_ms"] = math.Max(numeric, 0)
	if numeric > 0 {
		out["linalg.host_gflops"] = cholesky.TheoreticalFlops(sh.n) / 1e9 / (numeric / 1e3)
	}

	if evals := j.tr.netMS("glue.eval"); len(evals) > 0 {
		out["mle.eval_ms_p50"] = percentile(evals, 50)
		out["mle.eval_ms_p95"] = percentile(evals, 95)
	}
	var overhead []float64
	var gc, cpu float64
	var bytes, allocs, untracedEvals uint64
	tracedOps, tracedEvals := 0, 0
	for k, op := range j.ops {
		gc += op.gcCPU
		cpu += op.cpu
		if op.traced {
			tracedOps++
			tracedEvals += op.evals
			base := j.ops[k^1].wall // the untraced half of the pair
			overhead = append(overhead, (op.wall-op.probe-base)/base)
		} else {
			bytes += op.bytes
			allocs += op.allocs
			untracedEvals += uint64(op.evals)
		}
	}
	out["mle.evals"] = float64(tracedEvals) / float64(tracedOps)
	out["mle.alloc_bytes_per_eval"] = float64(bytes) / float64(untracedEvals)
	out["mle.allocs_per_eval"] = float64(allocs) / float64(untracedEvals)
	out["trace.unattributed_frac"] = sum.unattributed()
	out["trace.overhead_frac"] = median(overhead)
	out["host.gc_frac"] = gc / cpu
	var mem goruntime.MemStats
	goruntime.ReadMemStats(&mem)
	out["host.peak_heap_mb"] = float64(mem.HeapSys) / 1e6

	err := j.w.extras(out, tracedOps, seed)
	if e := out["geo.entries"]; e > 0 {
		out["geo.ns_per_entry"] = out["geo.covtile_ms"] * 1e6 / e
	}
	return out, err
}

// printReport writes every metric of a run by name with its unit: the
// median, its quartiles and the number of operations behind it.
func printReport(w io.Writer, r runResult, tr *tracer) {
	fmt.Fprintf(w, "\n%s  seed=%d  attempted=%d failed=%d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	row := func(name string) {
		if v, ok := r.Metrics[name]; ok {
			fmt.Fprintf(w, "  %-26s %14.6g %-8s [q1 %.6g, q3 %.6g, n=%d]\n", name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
		}
	}
	for _, d := range endToEndMetrics {
		row(d.name)
	}
	for _, d := range perLayerMetrics {
		row(d.name)
	}
	if tr == nil {
		return
	}
	sum := tr.summarize()
	names := make([]string, 0, len(sum.layers))
	for name := range sum.layers {
		if !isProbe(name) {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(a, b int) bool { return sum.layers[names[a]].self > sum.layers[names[b]].self })
	fmt.Fprintf(w, "  traced total %.1f ms (probes of %.1f ms removed); self time by layer:\n", ms(sum.total), ms(sum.probe))
	for _, name := range names {
		fmt.Fprintf(w, "    %-18s %10.1f ms %6.2f%%  (%d spans)\n", name, sum.selfMS(name), 100*float64(sum.layers[name].self)/float64(sum.total), sum.layers[name].spans)
	}
}
