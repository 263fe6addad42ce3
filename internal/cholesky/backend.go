package cholesky

import (
	"fmt"

	"geompc/internal/linalg"
	"geompc/internal/plan"
	"geompc/internal/solver"
)

// directBackend adapts the tile Cholesky factorization to the pluggable
// solver layer: it is solver backend "direct", the paper's adaptive
// mixed-precision factorization. The historical entry points (Run,
// RunCached, Compile, Replay) remain the implementation — the backend is a
// thin wrapper over them, so every golden schedule digest, factor bit and
// plan-replay digest is untouched by the refactor.
type directBackend struct{}

func init() { solver.Register(directBackend{}) }

// Name implements solver.Backend.
func (directBackend) Name() string { return "direct" }

// Solve implements solver.Backend.
func (directBackend) Solve(cfg solver.Config) (*solver.Result, error) {
	return directSolve(cfg, nil, false)
}

// SolveCached implements solver.Backend.
func (directBackend) SolveCached(cfg solver.Config, c *plan.Cache) (*solver.Result, error) {
	return directSolve(cfg, c, true)
}

// directConfig maps the backend-agnostic config onto the historical one.
func directConfig(sc solver.Config) Config {
	return Config{
		Desc: sc.Desc, Maps: sc.Maps, Platform: sc.Platform, Matrix: sc.Matrix,
		Strategy: sc.Strategy, Trace: sc.Trace, Audit: sc.Audit,
		Lookahead: sc.Lookahead, Faults: sc.Faults, Sched: sc.Sched,
		Bcast: sc.Bcast,
	}
}

func directSolve(sc solver.Config, c *plan.Cache, cached bool) (*solver.Result, error) {
	if sc.RHS != nil && len(sc.RHS) != sc.Desc.N {
		return nil, fmt.Errorf("cholesky: RHS has %d entries, matrix is %d×%d", len(sc.RHS), sc.Desc.N, sc.Desc.N)
	}
	cfg := directConfig(sc)
	var res *Result
	var err error
	if cached {
		res, err = RunCached(cfg, c)
	} else {
		res, err = Run(cfg)
	}
	if err != nil {
		return nil, err
	}
	out := &solver.Result{
		Stats:     res.Stats,
		Backend:   "direct",
		Strategy:  sc.Strategy,
		Converged: res.Err == nil,
		Err:       res.Err,
		Reg:       res.Metrics(),
	}
	if cfg.Trace || cfg.Audit {
		sched := res.Schedule(sc.Desc.NT)
		out.Schedule = make([]solver.ScheduledTask, len(sched))
		for i, t := range sched {
			out.Schedule[i] = solver.ScheduledTask(t)
		}
	}
	if sc.Matrix != nil && sc.RHS != nil && res.Err == nil {
		// Solve Σx = b against the factor: x = L⁻ᵀ(L⁻¹b) — O(n²) host-side
		// triangular solves, negligible next to the O(n³) factorization and
		// charged the same way the MLE quadratic form historically was.
		n := sc.Desc.N
		l := sc.Matrix.LowerToDense()
		x := append([]float64(nil), sc.RHS...)
		linalg.TrsvLNN(n, l, n, x)
		linalg.TrsvLTN(n, l, n, x)
		out.Solution = x
	}
	return out, nil
}
