// Package deterflow enforces the repo's determinism contract: the engine
// runs on a virtual clock, and its schedules, digests, traces and metrics
// snapshots are golden-pinned bit-for-bit. Wall-clock or global-RNG state
// entering a simulation package, or map iteration order leaking into
// ordered output, silently breaks that and only surfaces later as a flaky
// golden test. A whole-program taint pass flags both at compile time,
// whether the source sits in a deterministic package or hides any number
// of calls away (a helper in internal/core returning map keys unsorted):
//
//   - Sources (in ANY module package): wall-clock reads (time.Now),
//     math/rand global-source draws (seeded construction — rand.New,
//     rand.NewSource, rand.NewPCG — is fine), and a `for range` over a map
//     unless its order provably cannot escape: every statement in the body
//     is order-insensitive (map writes/deletes keyed by the range variable,
//     integer counter updates), or the body only collects into slices that
//     are later passed to a sort call in the same function. Sites carrying
//     a reasoned //geompc:nolint deterflow are treated as audited and do
//     not taint callers.
//
//   - Sinks: the deterministic packages — the virtual-clock spine
//     (runtime, sched, comm, cholesky) plus the packages that
//     render digests, schedules, traces and metrics (obs, plan). Anything
//     their golden digests consume must be reproducible bit-for-bit.
//
// Facts propagate bottom-up over call-graph SCCs, through interface
// dispatch (every matching method), closures and method values (creating
// or passing a tainted function value taints the holder — callbacks are
// how nondeterminism usually sneaks into the engine). A finding is either a
// source sitting directly in a sink package (the zero-length chain), or a
// call or reference *from* a sink package *to* a function outside the sink
// set whose summary is tainted; edges inside the sink set are not
// re-reported, so one source yields one finding.
package deterflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"geompc/internal/analysis"
)

// Name is the analyzer name, usable in //geompc:nolint directives.
const Name = "deterflow"

// Analyzer is the deterflow instance registered with the driver.
var Analyzer = &analysis.Analyzer{
	Name:    Name,
	Doc:     "flags nondeterminism (wall clock, global rand, map order) in the deterministic packages and the call chains that carry it in",
	Prepare: prepare,
	Run:     run,
}

// SinkPkgs are the deterministic packages (the package doc's sinks).
var SinkPkgs = map[string]bool{
	"runtime": true, "sched": true, "comm": true, "cholesky": true,
	"obs": true, "plan": true,
}

// Facts computes (or returns) the program's nondeterminism summary: for
// each function, the earliest reason it is not reproducible, or nil.
func Facts(prog *analysis.Program) map[*analysis.Func]*analysis.Taint {
	return prog.Flow(analysis.FlowSpec{
		Key: "nondet",
		Direct: func(fn *analysis.Func) *analysis.Taint {
			return directSource(prog, fn)
		},
		Extern: func(fn *analysis.Func, e analysis.ExternEdge) *analysis.Taint {
			return externSource(prog, fn, e)
		},
	})
}

func prepare(prog *analysis.Program) { Facts(prog) }

// directSource finds the function's first in-body source: an escaping map
// range. (Clock and rand calls resolve through the call graph's extern
// edges, not here.)
func directSource(prog *analysis.Program, fn *analysis.Func) *analysis.Taint {
	var taint *analysis.Taint
	analysis.InspectOwn(fn, func(n ast.Node) bool {
		if taint != nil {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !analysis.MapRangeEscapes(fn.Pkg.Info, fn.Body(), rng) {
			return true
		}
		if prog.SuppressedAt(fn.Pkg.Fset, rng.Pos(), Name) {
			return true
		}
		taint = &analysis.Taint{What: "map iteration order", Pos: rng.Pos(), CallPos: rng.Pos()}
		return false
	})
	return taint
}

// externSource models body-less callees: the wall clock and the global
// rand source taint, everything else in the standard library is clean.
func externSource(prog *analysis.Program, fn *analysis.Func, e analysis.ExternEdge) *analysis.Taint {
	var what string
	switch e.PkgPath {
	case "time":
		if e.Name == "Now" {
			what = "time.Now()"
		}
	case "math/rand", "math/rand/v2":
		// Constructors (rand.New, rand.NewSource, rand.NewPCG, ...) build
		// seeded sources and are fine; package-level draws use the global
		// source. Methods on a seeded *rand.Rand (Recv != "") are fine too.
		if e.Recv == "" && !strings.HasPrefix(e.Name, "New") {
			what = e.PkgPath + "." + e.Name + " (global source)"
		}
	}
	if what == "" {
		return nil
	}
	if prog.SuppressedAt(fn.Pkg.Fset, e.Pos, Name) {
		return nil
	}
	return &analysis.Taint{What: what, Pos: e.Pos, CallPos: e.Pos}
}

// run reports, for each function of a sink package, every source in its
// own body and every call or reference that reaches a tainted function
// outside the sink set.
func run(pass *analysis.Pass) {
	base := analysis.PkgBase(pass)
	if !SinkPkgs[base] {
		return
	}
	pkgPath := pass.Pkg.Path()
	for _, fn := range pass.Prog.Funcs() {
		if fn.Pkg.Path != pkgPath {
			continue
		}
		analysis.InspectOwn(fn, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok && analysis.MapRangeEscapes(pass.Info, fn.Body(), rng) {
				pass.Reportf(rng.Pos(), "range over map %s: iteration order is nondeterministic and can leak into digests/schedules/traces — iterate sorted keys instead", types.ExprString(rng.X))
			}
			return true
		})
		for _, e := range fn.Extern {
			if externSource(pass.Prog, fn, e) == nil {
				continue
			}
			if e.PkgPath == "time" {
				pass.Reportf(e.Pos, "time.Now in a virtual-clock package: simulation time must come from the engine clock")
			} else {
				pass.Reportf(e.Pos, "%s.%s uses the global rand source in a virtual-clock package: draw from a seeded *rand.Rand instead", e.PkgPath, e.Name)
			}
		}
	}
	analysis.ReportTaintedEdges(pass, Facts(pass.Prog), SinkPkgs, func(verb string, callee *analysis.Func, _ *analysis.Taint, chain string) string {
		return fmt.Sprintf("%s %s carries nondeterminism into deterministic package %s (%s → %s) — hoist the source behind a seeded/sorted boundary or suppress the root with //geompc:nolint",
			verb, callee.Name, base, callee.Name, chain)
	})
}
