// Fixture backends for contractcheck: one deterministic implementation,
// one that sneaks the wall clock into Solve (flagged at the method), and a
// lookalike that does not implement Backend (exempt — the contract binds
// implementations only).
package backends

import (
	"time"

	solver "geompc/internal/solver"
)

// Good is a deterministic backend: clean.
type Good struct{}

func (Good) Name() string { return "good" }

func (Good) Solve(cfg solver.Config) (*solver.Result, error) {
	return &solver.Result{Digest: uint64(cfg.N)}, nil
}

// Bad seeds its digest from the wall clock: Solve violates §3.2.
type Bad struct{}

func (Bad) Name() string { return "bad" }

func (Bad) Solve(cfg solver.Config) (*solver.Result, error) { // want `contractcheck: solver backend Bad: Solve is not deterministic`
	return &solver.Result{Digest: uint64(time.Now().UnixNano())}, nil
}

// Lookalike has the nondeterministic method shapes but no Name(): it does
// not satisfy Backend, so the contract does not bind it.
type Lookalike struct{}

func (Lookalike) Solve(cfg solver.Config) (*solver.Result, error) {
	return &solver.Result{Digest: uint64(time.Now().UnixNano())}, nil
}
