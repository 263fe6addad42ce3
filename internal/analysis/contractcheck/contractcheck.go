// Package contractcheck machine-checks DESIGN.md §3.2: every solver backend
// must be deterministic. The solver registry dispatches through the
// solver.Backend interface, the engine folds each backend's Result into the
// golden run digest, and the plan cache replays cached Results bit-for-bit
// — so a backend whose Solve wanders through time.Now, the global rand
// source or an order-leaking map range breaks three subsystems at once,
// none of them at the backend's own package.
//
// The check is structural, not name-based: a named type is a backend iff it
// (or its pointer) satisfies an interface named Backend declared in a
// package whose base name is "solver" — the same types.Implements test the
// registry's compile-time `var _ solver.Backend` assertions rely on. For
// each implementation found in the package under analysis, the contract
// method (Solve) is resolved to its call-graph node and
// required to be transitively nondeterminism-free under deterflow's
// whole-program summary; a violation is reported at the method's
// declaration with the call chain down to the root source. Sites under a
// reasoned //geompc:nolint are audited, exactly as in deterflow.
package contractcheck

import (
	"go/types"
	"path"

	"geompc/internal/analysis"
	"geompc/internal/analysis/deterflow"
)

// Analyzer is the contractcheck instance registered with the driver.
var Analyzer = &analysis.Analyzer{
	Name:    "contractcheck",
	Doc:     "requires every solver.Backend implementation's Solve to be transitively nondeterminism-free (DESIGN.md §3.2)",
	Prepare: prepare,
	Run:     run,
}

// ContractMethods are the Backend methods bound by the determinism
// contract. Name() is exempt: it returns a static registry key.
var ContractMethods = map[string]bool{"Solve": true}

func prepare(prog *analysis.Program) { deterflow.Facts(prog) }

// backendInterfaces finds every interface named Backend declared in a
// package whose base is "solver", as seen from pkg's own type-check
// universe (each root re-checks its dependencies, so interface identity
// only holds within one universe).
func backendInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if path.Base(p.Path()) == "solver" {
			if obj, ok := p.Scope().Lookup("Backend").(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					out = append(out, iface)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
	return out
}

func run(pass *analysis.Pass) {
	ifaces := backendInterfaces(pass.Pkg)
	if len(ifaces) == 0 {
		return
	}
	facts := deterflow.Facts(pass.Prog)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue // the contract binds implementations, not the interface
		}
		for _, iface := range ifaces {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			checkBackend(pass, named, facts)
			break
		}
	}
}

// checkBackend verifies one implementation's contract methods.
func checkBackend(pass *analysis.Pass, named *types.Named, facts map[*analysis.Func]*analysis.Taint) {
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		m, ok := mset.At(i).Obj().(*types.Func)
		if !ok || !ContractMethods[m.Name()] {
			continue
		}
		fn := pass.Prog.FuncOf(m)
		if fn == nil {
			continue // embedded promotion from outside the loaded source
		}
		t := facts[fn]
		if t == nil {
			continue
		}
		pass.Reportf(fn.Pos, "solver backend %s: %s is not deterministic (%s) — DESIGN.md §3.2 requires a bit-reproducible Solve; seed the source, sort the iteration, or suppress the root with a reasoned //geompc:nolint",
			named.Obj().Name(), m.Name(), pass.Prog.Chain(fn, facts))
	}
}
