// Fixture solver package for contractcheck: declares the Backend interface
// the contract binds. Base name "solver" is what the analyzer keys on.
package solver

// Config configures a solve.
type Config struct {
	N int
}

// Result is a solve outcome.
type Result struct {
	Digest uint64
}

// Backend is the pluggable solver contract: Solve must be transitively
// deterministic (DESIGN.md §3.2).
type Backend interface {
	Name() string
	Solve(cfg Config) (*Result, error)
}
