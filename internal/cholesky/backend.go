package cholesky

import (
	"fmt"

	"geompc/internal/linalg"
	"geompc/internal/plan"
	"geompc/internal/solver"
)

// directBackend adapts the tile Cholesky factorization to the pluggable
// solver layer: it is solver backend "direct", the paper's adaptive
// mixed-precision factorization, a thin wrapper over RunCached.
type directBackend struct{}

func init() { solver.Register(directBackend{}) }

// Name implements solver.Backend.
func (directBackend) Name() string { return "direct" }

// Solve implements solver.Backend.
func (directBackend) Solve(cfg solver.Config, c *plan.Cache) (*solver.Result, error) {
	if cfg.RHS != nil && len(cfg.RHS) != cfg.Desc.N {
		return nil, fmt.Errorf("cholesky: RHS has %d entries, matrix is %d×%d", len(cfg.RHS), cfg.Desc.N, cfg.Desc.N)
	}
	res, err := RunCached(cfg, c)
	if err != nil {
		return nil, err
	}
	out := &solver.Result{
		Stats:     res.Stats,
		Backend:   "direct",
		Strategy:  cfg.Strategy,
		Converged: res.Err == nil,
		Err:       res.Err,
		Reg:       res.Metrics(),
	}
	if cfg.Trace || cfg.Audit {
		out.Schedule = res.Schedule(cfg.Desc.NT)
	}
	if cfg.Matrix != nil && cfg.RHS != nil && res.Err == nil {
		// Solve Σx = b against the factor: x = L⁻ᵀ(L⁻¹b) — O(n²) host-side
		// triangular solves, negligible next to the O(n³) factorization and
		// charged the same way the MLE quadratic form historically was.
		n := cfg.Desc.N
		l := cfg.Matrix.LowerToDense()
		x := append([]float64(nil), cfg.RHS...)
		linalg.TrsvLNN(n, l, n, x)
		linalg.TrsvLTN(n, l, n, x)
		out.Solution = x
	}
	return out, nil
}
