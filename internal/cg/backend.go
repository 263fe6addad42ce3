package cg

import (
	"geompc/internal/plan"
	"geompc/internal/solver"
)

// cgBackend registers the iterative solve path as solver backend "cg".
type cgBackend struct{}

func init() { solver.Register(cgBackend{}) }

// Name implements solver.Backend.
func (cgBackend) Name() string { return "cg" }

// Solve implements solver.Backend.
func (cgBackend) Solve(cfg solver.Config, c *plan.Cache) (*solver.Result, error) {
	return Run(cfg, c)
}
