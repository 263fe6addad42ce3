package analysis

// Summary-based interprocedural dataflow. Each flow analyzer describes its
// lattice with a FlowSpec — what counts as a "bad" site inside a function
// body (Direct), how body-less extern callees behave (Extern), and which
// edges refuse to propagate (Block, the sanitizer hook: e.g. precflow cuts
// every edge that crosses into the audited conversion API). The engine
// then computes one fact per function bottom-up over the call-graph SCCs:
//
//	fact(f) = earliest of { Direct(f) } ∪ { Extern(f,e) } ∪
//	          { propagate(e) : e ∈ edges(f), fact(callee(e)) ≠ nil, ¬Block(e) }
//
// "Earliest" is by source position inside f, so the reported reason is the
// first one a reader of the function meets, and it is deterministic. Facts
// are monotone (nil → non-nil, then position can only move earlier), so
// the within-SCC fixpoint for recursion and mutual recursion terminates.
//
// A fact carries its provenance: the root site plus a Via pointer to the
// next function toward it, which Chain() unwinds into the human-readable
// call path shown in diagnostics.

import (
	"fmt"
	"go/token"
	"path"
	"strings"
)

// Taint is one function's dataflow fact: the first reason the function has
// the property (performs an unaudited lowering, is nondeterministic,
// allocates, ...), or absent entirely (a nil *Taint).
type Taint struct {
	// What describes the root site ("time.Now()", "make").
	What string
	// Pos is the root site's position (in Via's package when Via != nil).
	Pos token.Pos
	// Via is the next function on the path to the root; nil when the root
	// site is in this function's own body.
	Via *Func
	// CallPos is the call/ref position inside this function that reaches
	// Via (== Pos when Via is nil).
	CallPos token.Pos
}

// FlowSpec describes one interprocedural property.
type FlowSpec struct {
	// Key names the computation in the program memo cache.
	Key string
	// Direct returns the function's own earliest bad site, or nil.
	Direct func(fn *Func) *Taint
	// Extern models a body-less callee; nil means "clean".
	Extern func(fn *Func, e ExternEdge) *Taint
	// Block reports edges that must not propagate (sanitizers). Nil
	// blocks nothing.
	Block func(fn *Func, e Edge) bool
	// CallsOnly restricts propagation to EdgeCall edges. Flow properties
	// about *values* (nondeterminism, precision) also ride EdgeRef edges —
	// handing out a tainted closure taints the holder — while properties
	// about *executing* (allocation) only follow real calls.
	CallsOnly bool
}

// Flow computes (or returns the memoized) facts for spec over the whole
// program.
func (p *Program) Flow(spec FlowSpec) map[*Func]*Taint {
	return p.Memo("flow/"+spec.Key, func() any {
		return p.computeFlow(spec)
	}).(map[*Func]*Taint)
}

func (p *Program) computeFlow(spec FlowSpec) map[*Func]*Taint {
	facts := make(map[*Func]*Taint, len(p.Funcs()))
	eval := func(fn *Func) *Taint {
		best := spec.Direct(fn)
		consider := func(t *Taint) {
			if t == nil {
				return
			}
			if best == nil || t.CallPos < best.CallPos {
				best = t
			}
		}
		for i := range fn.Extern {
			e := fn.Extern[i]
			if spec.CallsOnly && e.Kind != EdgeCall {
				continue
			}
			if spec.Extern == nil {
				continue
			}
			if t := spec.Extern(fn, e); t != nil {
				consider(&Taint{What: t.What, Pos: e.Pos, CallPos: e.Pos})
			}
		}
		for i := range fn.Edges {
			e := fn.Edges[i]
			if spec.CallsOnly && e.Kind != EdgeCall {
				continue
			}
			if spec.Block != nil && spec.Block(fn, e) {
				continue
			}
			if ct := facts[e.Callee]; ct != nil {
				consider(&Taint{What: ct.What, Pos: ct.Pos, Via: e.Callee, CallPos: e.Pos})
			}
		}
		return best
	}

	for _, scc := range p.SCCs() {
		// Iterate the component to a fixpoint: facts only strengthen
		// (nil → set, CallPos only decreases), so this terminates.
		for changed := true; changed; {
			changed = false
			for _, fn := range scc {
				next := eval(fn)
				prev := facts[fn]
				if next == nil {
					continue
				}
				if prev == nil || next.CallPos < prev.CallPos {
					facts[fn] = next
					changed = true
				}
			}
		}
	}
	return facts
}

// Chain renders the call path from fn's fact down to its root site:
// "a → b → c: time.Now() at foo.go:12". The final position is rendered
// with a base filename so fixture output is path-independent.
func (p *Program) Chain(fn *Func, facts map[*Func]*Taint) string {
	t := facts[fn]
	if t == nil {
		return ""
	}
	var hops []string
	cur := t
	last := fn
	for cur != nil && cur.Via != nil {
		hops = append(hops, cur.Via.Name)
		last = cur.Via
		cur = facts[cur.Via]
		if len(hops) > 16 { // defensive bound; cycles have stable facts
			break
		}
	}
	root := "?"
	what := t.What
	if cur != nil {
		what = cur.What
		pos := last.Pkg.Fset.Position(cur.Pos)
		root = fmt.Sprintf("%s at %s:%d", what, basename(pos.Filename), pos.Line)
	} else {
		root = what
	}
	if len(hops) == 0 {
		return root
	}
	return strings.Join(hops, " → ") + ": " + root
}

// ReportTaintedEdges is the reporting half shared by the flow analyzers:
// for every function of the pass's package, each call or reference edge
// whose callee carries a fact is reported once per position, rendered by
// msg from the edge's verb ("call to" / "reference to"), the callee, its
// fact and the chain down to the root site. Callees in a package whose base
// name is in inside are skipped — the finding belongs to the boundary edge
// (deterflow's sink set) or does not exist (precflow's audited API).
func ReportTaintedEdges(pass *Pass, facts map[*Func]*Taint, inside map[string]bool, msg func(verb string, callee *Func, t *Taint, chain string) string) {
	pkgPath := pass.Pkg.Path()
	seen := make(map[token.Pos]bool)
	for _, fn := range pass.Prog.Funcs() {
		if fn.Pkg.Path != pkgPath {
			continue
		}
		for _, e := range fn.Edges {
			t := facts[e.Callee]
			if t == nil || seen[e.Pos] || inside[path.Base(e.Callee.Pkg.Path)] {
				continue
			}
			seen[e.Pos] = true
			verb := "call to"
			if e.Kind == EdgeRef {
				verb = "reference to"
			}
			pass.Reportf(e.Pos, "%s", msg(verb, e.Callee, t, pass.Prog.Chain(e.Callee, facts)))
		}
	}
}

func basename(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
