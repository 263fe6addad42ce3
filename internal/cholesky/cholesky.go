package cholesky

import (
	"fmt"
	"io"
	"sort"

	"geompc/internal/comm"
	"geompc/internal/obs"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/sched"
	"geompc/internal/tile"
)

// Config describes one factorization run.
type Config struct {
	// Desc is the tiling and process-grid layout.
	Desc tile.Desc
	// Maps holds the kernel/storage/comm precision maps.
	Maps *precmap.Maps
	// Platform is the simulated machine.
	Platform *runtime.Platform
	// Matrix, when non-nil, holds real tile data and enables numeric
	// execution; nil runs in phantom (cost-only) mode.
	Matrix *tile.Matrix
	// Strategy selects Auto (Algorithm 2) or ForceTTC communication.
	Strategy Strategy
	// Trace enables per-interval occupancy/power recording.
	Trace bool
	// Audit enables the runtime's invariant auditor (pin balance, LRU
	// residency, energy conservation); violations fail the run. Implies
	// Trace.
	Audit bool
	// Lookahead overrides the engine's stream pipeline depth (default 2).
	Lookahead int
	// Faults, when non-nil, arms the run with a deterministic fault plan
	// (device failures, transient kernel faults, host-link slowdowns); see
	// runtime.ParseFaultSpec for the CLI grammar. A nil injector — or one
	// with an empty plan — leaves the run bit-identical to a fault-free
	// engine.
	Faults runtime.FaultInjector
	// Sched selects the engine's scheduling policy (ready-queue order,
	// placement, failover). Nil means sched.FIFO{} — the historical
	// schedule, bit for bit. Any policy produces the bit-identical factor;
	// only virtual time and data motion change.
	Sched sched.Policy
	// Bcast selects the inter-rank broadcast topology. Nil means
	// comm.Binomial{}, the historical arithmetic.
	Bcast comm.Topology
	// Deprecated: has no effect, the engine is serial. Nothing reads it;
	// the field remains only until the end-to-end benchmark stops assigning
	// it.
	EngineWorkers int
}

// Result reports a completed factorization.
type Result struct {
	Stats    runtime.Stats
	Strategy Strategy
	// STCTasks/CommTasks count communication-issuing tasks using
	// sender-side conversion vs the total (Algorithm 2's decision).
	STCTasks, CommTasks int
	// Err is the first numeric failure (e.g. a non-SPD pivot), nil on
	// success or in phantom mode.
	Err error

	// Exactly one of the two is set: engine for live runs, the frozen
	// plan-backed state (schedule + compile-time metrics) for results
	// served by the plan cache (see RunCached).
	engine   *runtime.Engine
	schedule []runtime.ScheduledTask
	metrics  *obs.Registry
}

// DeviceTrace exposes the busy/transfer interval traces of device i
// recorded during a Trace-enabled run. Plan-backed results carry no
// interval traces and return nil slices.
func (r *Result) DeviceTrace(i int) (busy, xfer []runtime.Interval) {
	if r.engine == nil {
		return nil, nil
	}
	return r.engine.DeviceTrace(i)
}

// Digest returns the run's schedule digest (see runtime.Stats.ScheduleDigest).
func (r *Result) Digest() uint64 { return r.Stats.ScheduleDigest }

// Metrics returns the engine's metrics registry for this run. Plan-backed
// results return the compile run's frozen registry.
func (r *Result) Metrics() *obs.Registry {
	if r.engine == nil {
		if r.metrics == nil {
			return obs.NewRegistry()
		}
		return r.metrics
	}
	return r.engine.Metrics()
}

// WriteChromeTrace renders the run's timeline as Chrome trace-event JSON.
// nt, when positive, labels kernel spans in the paper's task notation
// (only meaningful for Run results; pass 0 for RunDTD's insertion ids).
// Plan-backed results carry no interval traces and return an error.
func (r *Result) WriteChromeTrace(w io.Writer, nt int) error {
	if r.engine == nil {
		return fmt.Errorf("cholesky: chrome traces need a live run (plan-backed result)")
	}
	var name func(id int) string
	if nt > 0 {
		name = func(id int) string { return TaskName(nt, id) }
	}
	return r.engine.WriteChromeTrace(w, name)
}

// Run executes the adaptive mixed-precision tile Cholesky described by cfg
// and returns its simulated statistics (and, in numeric mode, leaves the
// factor L in cfg.Matrix's lower tiles).
func Run(cfg Config) (*Result, error) {
	g, err := newGraph(cfg)
	if err != nil {
		return nil, err
	}
	eng := runtime.New(cfg.Platform, g)
	eng.Trace = cfg.Trace
	eng.Audit = cfg.Audit
	eng.Inject(cfg.Faults)
	eng.Policy = cfg.Sched
	eng.Bcast = cfg.Bcast
	if cfg.Lookahead > 0 {
		eng.Lookahead = cfg.Lookahead
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stats:    stats,
		Strategy: cfg.Strategy,
		Err:      g.Err(),
		engine:   eng,
	}
	res.countConversions(cfg)
	return res, nil
}

// newGraph validates cfg and builds the PTG task graph of one
// factorization (shared by Run and the plan front-end).
func newGraph(cfg Config) (*graph, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("cholesky: nil platform")
	}
	if cfg.Maps == nil {
		return nil, fmt.Errorf("cholesky: nil precision maps")
	}
	g := &graph{
		ids:      newIDs(cfg.Desc.NT),
		desc:     cfg.Desc,
		maps:     cfg.Maps,
		plat:     cfg.Platform,
		strat:    cfg.Strategy,
		mat:      cfg.Matrix,
		rankSeen: make([]int64, cfg.Platform.Ranks),
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	if g.mat != nil {
		g.wire = make([][]float64, cfg.Desc.NT*(cfg.Desc.NT+1)/2)
	}
	return g, nil
}

// countConversions fills the STC/TTC task counters from the maps.
func (r *Result) countConversions(cfg Config) {
	if cfg.Strategy == ForceTTC {
		_, r.CommTasks = cfg.Maps.STCCount()
	} else {
		r.STCTasks, r.CommTasks = cfg.Maps.STCCount()
	}
}

// TheoreticalFlops returns the flop count of an N×N Cholesky, N³/3.
func TheoreticalFlops(n int) float64 {
	fn := float64(n)
	return fn * fn * fn / 3
}

// TaskName renders a task id as the paper's notation: POTRF(k), TRSM(m,k),
// SYRK(m,k) or GEMM(m,n,k).
func TaskName(nt, id int) string {
	s := newIDs(nt)
	op, m, n, k := s.decode(id)
	switch op {
	case opPotrf:
		return fmt.Sprintf("POTRF(%d)", k)
	case opTrsm:
		return fmt.Sprintf("TRSM(%d,%d)", m, k)
	case opSyrk:
		return fmt.Sprintf("SYRK(%d,%d)", m, k)
	default:
		return fmt.Sprintf("GEMM(%d,%d,%d)", m, n, k)
	}
}

// Schedule returns the simulated task timeline of a Trace-enabled run,
// labeled in the paper's notation — the Fig 3 execution demonstration.
// Labels are only meaningful for Run (PTG ids); RunDTD results use
// insertion-order ids and should not be passed here.
func (r *Result) Schedule(nt int) []ScheduledTask {
	raw := r.schedule
	if r.engine != nil {
		raw = r.engine.ScheduleTrace()
	}
	out := make([]ScheduledTask, len(raw))
	for i, t := range raw {
		out[i] = ScheduledTask{
			Name:   TaskName(nt, t.ID),
			Device: t.Device,
			Start:  t.Start,
			End:    t.End,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ScheduledTask is one labeled entry of the simulated timeline.
type ScheduledTask struct {
	Name       string
	Device     int
	Start, End float64
}
