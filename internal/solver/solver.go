// Package solver defines the pluggable solve-path layer: a Backend turns
// one covariance problem (tiling + precision maps + platform + optional
// numeric tiles and right-hand side) into a task graph, runs it through
// the deterministic engine (internal/runtime), and reports per-precision
// data motion, flops and accuracy through the engine's metrics registry
// (internal/obs).
//
// Two backends register here: "direct" (internal/cholesky — the paper's
// adaptive mixed-precision tile factorization) and "cg" (internal/cg — a
// preconditioned conjugate-gradient iteration with per-iteration precision
// switching). Both run the same platform models, scheduling policies,
// broadcast topologies and plan cache; they differ only in the DAG they
// emit. See DESIGN.md §3.2.
package solver

import (
	"fmt"
	"sort"

	"geompc/internal/comm"
	"geompc/internal/obs"
	"geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/sched"
	"geompc/internal/tile"
)

// Strategy selects how communication precision is chosen. It lives here —
// shared by every backend — and internal/cholesky aliases it for
// compatibility.
type Strategy int

const (
	// Auto is the paper's automated conversion strategy: Algorithm 2's
	// comm-precision map decides STC vs TTC per task.
	Auto Strategy = iota
	// ForceTTC always sends at storage precision with receiver-side
	// conversion — the lower bound of Fig 8.
	ForceTTC
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == ForceTTC {
		return "TTC"
	}
	return "STC"
}

// IterParams tunes an iterative backend. The zero value picks the
// defaults below; direct backends ignore it.
type IterParams struct {
	// Tol is the convergence threshold on the relative residual
	// ‖r‖/‖b‖ (default 1e-10).
	Tol float64
	// MaxIters bounds the iteration count (default 500 in numeric mode;
	// phantom runs execute exactly MaxIters, default 24).
	MaxIters int
	// Chunk is the number of iterations emitted per engine run (default
	// 4): convergence is checked deterministically at chunk boundaries,
	// and the plan cache keys on one chunk's precision schedule.
	Chunk int
	// Ladder is the precision set the per-iteration switch rule draws
	// from (default prec.CholeskySet).
	Ladder []prec.Precision
	// Rate is the modeled per-iteration residual reduction used to pick
	// each iteration's precision ahead of the chunk (and, in phantom
	// mode, to synthesize the residual trajectory). Default 0.25.
	Rate float64
	// Safety is the margin of the precision-switch rule: iteration t may
	// run in the lowest ladder precision p with eps(p) ≤ relres(t)/Safety
	// (default 8).
	Safety float64
	// Precond selects the preconditioner: "" or "jacobi" for the tile-
	// diagonal Jacobi preconditioner, "none" for the identity (what the
	// stochastic Lanczos log-det probes need).
	Precond string
}

// Config is the one run description every layer takes — the paper's
// single descriptor of tiling, precision maps, machine and conversion
// strategy, plus the engine knobs. internal/cholesky aliases it as
// cholesky.Config; no other struct re-spells these fields.
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
	// RHS is the right-hand side b of Σx = b. Numeric iterative solves
	// require it; the direct backend factorizes without it and solves
	// when it is present.
	RHS []float64
	// Strategy selects Auto (Algorithm 2) or ForceTTC communication.
	Strategy Strategy
	// Trace enables per-interval occupancy/power recording and the
	// labeled Result.Schedule timeline.
	Trace bool
	// Audit enables the runtime's invariant auditor (pin balance, LRU
	// residency, energy conservation); violations fail the run. Implies
	// Trace.
	Audit bool
	// Lookahead overrides the engine's stream pipeline depth (default 2).
	Lookahead int
	// Sched selects the engine's scheduling policy (ready-queue order,
	// placement). Nil means sched.FIFO{} — the historical
	// schedule, bit for bit. Any policy produces the bit-identical result;
	// only virtual time and data motion change.
	Sched sched.Policy
	// Bcast selects the inter-rank broadcast topology. Nil means
	// comm.Binomial{}, the historical arithmetic.
	Bcast comm.Topology
	// Iter tunes iterative backends (ignored by direct ones).
	Iter IterParams
	// Deprecated: has no effect, the engine is serial. Nothing reads it;
	// the field remains only until the end-to-end benchmark stops assigning
	// it.
	EngineWorkers int
}

// Engine returns an engine for one run of g configured from cfg — the one
// place the run config's engine knobs are applied.
func (cfg Config) Engine(g runtime.Graph) *runtime.Engine {
	eng := runtime.New(cfg.Platform, g)
	eng.Trace = cfg.Trace
	eng.Audit = cfg.Audit
	eng.Policy = cfg.Sched
	eng.Bcast = cfg.Bcast
	if cfg.Lookahead > 0 {
		eng.Lookahead = cfg.Lookahead
	}
	return eng
}

// WriteShapeSig writes the part of a plan shape signature every backend
// shares: tiling, process grid, platform, conversion strategy, scheduling
// policy, broadcast topology and pipeline depth. Backends prepend their
// name and append what else shapes their DAG (front-end, chunk precision
// schedule); the precision maps and the numeric data stay out.
func (cfg Config) WriteShapeSig(d *obs.Digest) {
	d.WriteInt64(int64(cfg.Desc.N))
	d.WriteInt64(int64(cfg.Desc.TS))
	d.WriteInt64(int64(cfg.Desc.NT))
	d.WriteInt64(int64(cfg.Desc.P))
	d.WriteInt64(int64(cfg.Desc.Q))
	d.WriteInt64(int64(cfg.Platform.Ranks))
	d.WriteInt64(int64(cfg.Platform.DevPerRank))
	d.WriteString(cfg.Platform.Node.Name)
	d.WriteString(cfg.Platform.Node.GPU.Name)
	d.WriteInt64(int64(cfg.Strategy))
	pol := "fifo"
	if cfg.Sched != nil {
		pol = cfg.Sched.Name()
	}
	d.WriteString(pol)
	topo := "binomial"
	if cfg.Bcast != nil {
		topo = cfg.Bcast.Name()
	}
	d.WriteString(topo)
	la := 2
	if cfg.Lookahead > 0 {
		la = cfg.Lookahead
	}
	d.WriteInt64(int64(la))
}

// ScheduledTask is one labeled entry of a Trace-enabled run's timeline.
type ScheduledTask struct {
	Name       string
	Device     int
	Start, End float64
}

// Result reports a completed solve, backend-agnostically.
type Result struct {
	// Stats aggregates the engine statistics of every run the solve
	// issued (iterative backends sum their chunks; ScheduleDigest folds
	// chunk digests in order).
	Stats runtime.Stats
	// Backend is the registered name of the backend that produced this.
	Backend string
	// Strategy echoes the communication strategy of the run.
	Strategy Strategy
	// Iterations is the iteration count (0 for direct backends).
	Iterations int
	// Residual is the final relative residual ‖r‖/‖b‖ — measured in
	// numeric mode, modeled in phantom mode; 0 for direct backends.
	Residual float64
	// Converged reports whether an iterative solve met Tol within
	// MaxIters; direct backends set it to Err == nil.
	Converged bool
	// Solution holds x when a numeric solve was asked for (RHS set).
	Solution []float64
	// Err is the first numeric failure (non-SPD pivot, CG breakdown),
	// nil on success or in phantom mode.
	Err error
	// Reg is the merged metrics registry of the solve; may be nil.
	Reg *obs.Registry
	// Schedule is the labeled timeline of a Trace-enabled run (start-
	// time ordered), nil otherwise.
	Schedule []ScheduledTask
}

// Digest returns the solve's schedule digest.
func (r *Result) Digest() uint64 { return r.Stats.ScheduleDigest }

// Metrics returns the solve's metrics registry, never nil.
func (r *Result) Metrics() *obs.Registry {
	if r.Reg == nil {
		return obs.NewRegistry()
	}
	return r.Reg
}

// Backend is one pluggable solve path. Implementations must be
// deterministic: equal Configs produce bit-identical Stats, digests and
// Solutions.
type Backend interface {
	// Name is the registered CLI spelling ("direct", "cg").
	Name() string
	// Solve runs cfg through the engine. A non-nil cache serves repeated
	// shapes from their compiled plan; nil runs live.
	Solve(cfg Config, c *plan.Cache) (*Result, error)
}

var backends = map[string]Backend{}

// Register installs a backend under its Name. Backends register from
// their package init; duplicate names are a programming error.
func Register(b Backend) {
	name := b.Name()
	if _, dup := backends[name]; dup {
		panic("solver: duplicate backend " + name)
	}
	backends[name] = b
}

// ByName resolves a backend by its registered name; "" means "direct".
func ByName(name string) (Backend, error) {
	if name == "" {
		name = "direct"
	}
	if b, ok := backends[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("solver: unknown backend %q (have %v)", name, Names())
}

// Names lists the registered backends, sorted.
func Names() []string {
	var names []string
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
