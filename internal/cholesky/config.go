package cholesky

import (
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// Strategy selects how communication precision is chosen.
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

// Config is the one run description every layer takes — the paper's
// single descriptor of tiling, precision maps, machine and conversion
// strategy, plus the engine knobs. No other struct re-spells these fields.
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
	// Trace enables per-interval occupancy/power recording and the
	// labeled Result.Schedule timeline.
	Trace bool
	// Audit enables the runtime's invariant auditor (pin balance, LRU
	// residency, energy conservation); violations fail the run. Implies
	// Trace.
	Audit bool
	// Lookahead overrides the engine's stream pipeline depth (default 2).
	Lookahead int
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
	if cfg.Lookahead > 0 {
		eng.Lookahead = cfg.Lookahead
	}
	return eng
}
