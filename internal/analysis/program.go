package analysis

// Whole-program view: a deterministic call graph over every module-local
// package plus a summary cache, built once per lint run and shared by the
// interprocedural analyzers (precflow, deterflow and the transitive half
// of hotalloc). The graph is conservative where Go is
// dynamic — interface calls resolve to every method in the program with a
// matching name and signature (class-hierarchy analysis), closures and
// method values add "ref" edges from the function that creates the value —
// and silent where it cannot resolve at all (calls through arbitrary
// function-typed values), which DESIGN.md §6j documents as the engine's
// soundness boundary.
//
// Everything about the graph is deterministic: functions are keyed by a
// stable string ID (pkgpath.(Recv).Name, closures pkgpath.Parent$n in
// source order), edges are discovered in AST order, dispatch candidates are
// sorted by ID, and SCCs come out of Tarjan's algorithm seeded in ID order.
// Two runs over the same tree therefore report byte-identical diagnostics.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"sync"
)

// Program is the whole-program analysis state shared by one driver run.
type Program struct {
	// Roots are the packages being linted (diagnostics are reported here).
	Roots []*Package
	// All is every AST-bearing package the graph covers: the roots plus
	// module-local dependencies, in import-path order.
	All []*Package

	graphOnce sync.Once
	funcs     map[string]*Func // by ID
	funcList  []*Func          // ID order
	sccs      [][]*Func        // bottom-up (callees before callers)
	methodIdx map[string][]*Func

	mu         sync.Mutex
	memo       map[string]*memoEntry
	pkgNolints map[*Package][]*Nolint       // parsed directives per package
	nolintIdx  map[string]map[int][]*Nolint // file → line → directives
}

// EdgeKind distinguishes a genuine call from a reference that may become
// one (a closure or method value handed somewhere else).
type EdgeKind int

const (
	// EdgeCall is a call expression resolved to its callee(s).
	EdgeCall EdgeKind = iota
	// EdgeRef is a function value being created or passed: a closure
	// literal, a method value, or a named function used as a value. The
	// holder may invoke it, so flow analyses treat it as a may-call.
	EdgeRef
)

// Edge is one resolved call-graph edge to a function with source in the
// program.
type Edge struct {
	Kind   EdgeKind
	Pos    token.Pos
	Callee *Func
}

// ExternEdge is a call or reference to a function outside the loaded
// source (standard library or assembly): no body to walk, so analyzers
// model these with intrinsic tables.
type ExternEdge struct {
	Kind    EdgeKind
	Pos     token.Pos
	PkgPath string
	Recv    string // receiver type name for methods, "" for functions
	Name    string
}

// Func is one node of the call graph: a declared function, a method, or a
// function literal (closure).
type Func struct {
	// ID is the stable key: "pkg.Name", "pkg.(Recv).Name", or for
	// closures "parentID$n" with n counting literals in source order.
	ID string
	// Name is the short display form used in diagnostic chains.
	Name string
	Pkg  *Package
	Pos  token.Pos
	Decl *ast.FuncDecl // nil for closures
	Lit  *ast.FuncLit  // nil for declared functions
	// Edges are in-program callees/references in AST order.
	Edges []Edge
	// Extern are out-of-program callees/references in AST order.
	Extern []ExternEdge
}

// Body returns the function's body block (nil for body-less declarations).
func (f *Func) Body() *ast.BlockStmt {
	if f.Lit != nil {
		return f.Lit.Body
	}
	if f.Decl != nil {
		return f.Decl.Body
	}
	return nil
}

// ProgramFromPackages wraps already-loaded packages (fixtures, tests) as a
// whole program: every package is both root and local.
func ProgramFromPackages(pkgs []*Package) *Program {
	return &Program{Roots: pkgs, All: pkgs}
}

// FuncByID resolves a graph node by its stable ID.
func (p *Program) FuncByID(id string) *Func {
	p.buildGraph()
	return p.funcs[id]
}

// Funcs returns every graph node in ID order.
func (p *Program) Funcs() []*Func {
	p.buildGraph()
	return p.funcList
}

// SCCs returns the strongly-connected components of the call graph in
// bottom-up order: every edge out of a later component lands in an earlier
// one, so summary evaluation can run callees-first.
func (p *Program) SCCs() [][]*Func {
	p.buildGraph()
	return p.sccs
}

// memoEntry makes each Memo key compute exactly once without holding the
// program mutex across the build — builds recurse into other Program
// methods (SuppressedAt, Flow) that take the same lock.
type memoEntry struct {
	once sync.Once
	v    any
}

// Memo computes-or-returns a named program-wide result. Analyzer Prepare
// hooks use it so shared summaries (flow facts, the hot set) are evaluated
// once. build may call back into the Program (including Memo with a
// *different* key); a key must not recursively Memo itself.
func (p *Program) Memo(key string, build func() any) any {
	p.mu.Lock()
	if p.memo == nil {
		p.memo = make(map[string]*memoEntry)
	}
	e, ok := p.memo[key]
	if !ok {
		e = &memoEntry{}
		p.memo[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// funcID builds the stable ID for a package-level function or method.
func funcID(pkgPath, recv, name string) string {
	if recv != "" {
		return pkgPath + ".(" + recv + ")." + name
	}
	return pkgPath + "." + name
}

// recvName returns the named receiver type of sig ("" for plain
// functions), with any pointer stripped.
func recvName(sig *types.Signature) string {
	r := sig.Recv()
	if r == nil {
		return ""
	}
	t := r.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// objFuncID keys a *types.Func the same way regardless of which package's
// type universe produced it (the loader may hold several types.Package
// instances for one import path; string IDs unify them).
func objFuncID(fn *types.Func) string {
	fn = fn.Origin() // canonicalize generic instantiations
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return funcID(pkg.Path(), "", fn.Name())
	}
	return funcID(pkg.Path(), recvName(sig), fn.Name())
}

// sigKey renders a method signature with the receiver stripped, qualified
// by full package path — the dispatch key for class-hierarchy analysis: an
// interface method and every concrete method implementing it share it.
func sigKey(name string, sig *types.Signature) string {
	bare := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return name + "|" + types.TypeString(bare, func(p *types.Package) string { return p.Path() })
}

// buildGraph indexes every function in the local packages and resolves
// their edges. Idempotent and cheap relative to type checking.
func (p *Program) buildGraph() {
	p.graphOnce.Do(func() {
		p.funcs = make(map[string]*Func)
		p.methodIdx = make(map[string][]*Func)
		for _, pkg := range p.All {
			p.indexPackage(pkg)
		}
		p.funcList = make([]*Func, 0, len(p.funcs))
		for _, f := range p.funcs {
			p.funcList = append(p.funcList, f)
		}
		sort.Slice(p.funcList, func(i, j int) bool { return p.funcList[i].ID < p.funcList[j].ID })
		for _, fn := range p.funcList {
			p.resolveEdges(fn)
		}
		p.sccs = tarjanSCC(p.funcList)
	})
}

// indexPackage creates Func nodes for every declared function/method and
// every function literal in pkg (closure IDs count literals per parent in
// source order; files arrive in the loader's sorted order).
func (p *Program) indexPackage(pkg *Package) {
	litCount := make(map[string]int)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if obj == nil {
					continue
				}
				id := objFuncID(obj)
				fn := &Func{ID: id, Name: displayName(pkg, d), Pkg: pkg, Pos: d.Pos(), Decl: d}
				p.funcs[id] = fn
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && d.Body != nil {
					key := sigKey(obj.Name(), sig)
					p.methodIdx[key] = append(p.methodIdx[key], fn)
				}
				if d.Body != nil {
					p.indexLits(pkg, id, fn.Name, d.Body, litCount)
				}
			case *ast.GenDecl:
				// Package-level literals (var F = func() {...}) hang off a
				// synthetic per-package parent so they still get stable IDs.
				p.indexLits(pkg, pkg.Path+".init", "init", d, litCount)
			}
		}
	}
	// Dispatch candidates must be in deterministic order however map
	// iteration shuffled the build.
	for _, fns := range p.methodIdx {
		sort.Slice(fns, func(i, j int) bool { return fns[i].ID < fns[j].ID })
	}
}

// indexLits registers every function literal under root with IDs
// parentID$n in source order, nesting included (a literal inside a literal
// gets the inner literal as parent).
func (p *Program) indexLits(pkg *Package, parentID, parentName string, root ast.Node, litCount map[string]int) {
	var walk func(n ast.Node, parentID, parentName string)
	walk = func(n ast.Node, parentID, parentName string) {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			litCount[parentID]++
			id := fmt.Sprintf("%s$%d", parentID, litCount[parentID])
			name := fmt.Sprintf("%s$%d", parentName, litCount[parentID])
			p.funcs[id] = &Func{ID: id, Name: name, Pkg: pkg, Pos: lit.Pos(), Lit: lit}
			walk(lit.Body, id, name)
			return false
		})
	}
	walk(root, parentID, parentName)
}

// displayName is the short human form for chains: "F", "(T).M".
func displayName(pkg *Package, d *ast.FuncDecl) string {
	base := path.Base(pkg.Path)
	if d.Recv != nil && len(d.Recv.List) > 0 {
		return fmt.Sprintf("%s.(%s).%s", base, recvTypeName(d.Recv.List[0].Type), d.Name.Name)
	}
	return base + "." + d.Name.Name
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return "?"
}

// localID maps an in-program *types.Func to its node, nil when the
// function lives outside the loaded source.
func (p *Program) localFunc(fn *types.Func) *Func {
	return p.funcs[objFuncID(fn)]
}

// resolveEdges walks fn's body (excluding nested literals, which are their
// own nodes) and records call/ref edges.
func (p *Program) resolveEdges(fn *Func) {
	body := fn.Body()
	if body == nil {
		return
	}
	info := fn.Pkg.Info
	// funcVals maps single-assignment local variables to the literal they
	// hold, resolving the `f := func(){...}; f()` idiom.
	funcVals := p.singleAssignLits(fn, body)

	skip := make(map[ast.Node]bool) // call-position nodes already handled
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal appearing as a value: the enclosing function
			// creates (and may later invoke) the closure. Never descend —
			// the literal's body belongs to its own node.
			if !skip[n] {
				p.addLitEdge(fn, EdgeRef, n)
			}
			return false
		case *ast.CallExpr:
			p.resolveCallEdge(fn, info, n, funcVals, skip)
		case *ast.Ident:
			if skip[n] {
				return true
			}
			if callee, ok := info.Uses[n].(*types.Func); ok {
				p.addObjEdge(fn, EdgeRef, n.Pos(), callee)
			}
		case *ast.SelectorExpr:
			if skip[n] {
				return true
			}
			p.resolveSelectorRef(fn, info, n)
			skip[n.Sel] = true
		}
		return true
	})
}

// singleAssignLits finds local variables assigned exactly one function
// literal and never reassigned anywhere in the function.
func (p *Program) singleAssignLits(fn *Func, body *ast.BlockStmt) map[types.Object]*Func {
	info := fn.Pkg.Info
	assigns := make(map[types.Object]int)
	lits := make(map[types.Object]*Func)
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		assigns[obj]++
		if lit, ok := rhs.(*ast.FuncLit); ok {
			lits[obj] = p.litFunc(fn.Pkg, lit)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	out := make(map[types.Object]*Func)
	for obj, lit := range lits {
		if assigns[obj] == 1 && lit != nil {
			out[obj] = lit
		}
	}
	return out
}

// litFunc finds the node registered for a literal by position.
func (p *Program) litFunc(pkg *Package, lit *ast.FuncLit) *Func {
	for _, f := range p.funcs {
		if f.Pkg == pkg && f.Lit == lit {
			return f
		}
	}
	return nil
}

func (p *Program) addLitEdge(fn *Func, kind EdgeKind, lit *ast.FuncLit) {
	if callee := p.litFunc(fn.Pkg, lit); callee != nil {
		fn.Edges = append(fn.Edges, Edge{Kind: kind, Pos: lit.Pos(), Callee: callee})
	}
}

// addObjEdge records an edge to a resolved *types.Func — in-program when a
// node exists, extern otherwise.
func (p *Program) addObjEdge(fn *Func, kind EdgeKind, pos token.Pos, callee *types.Func) {
	callee = callee.Origin()
	if local := p.localFunc(callee); local != nil {
		fn.Edges = append(fn.Edges, Edge{Kind: kind, Pos: pos, Callee: local})
		return
	}
	if callee.Pkg() == nil {
		return
	}
	recv := ""
	if sig, ok := callee.Type().(*types.Signature); ok {
		recv = recvName(sig)
	}
	fn.Extern = append(fn.Extern, ExternEdge{Kind: kind, Pos: pos, PkgPath: callee.Pkg().Path(), Recv: recv, Name: callee.Name()})
}

// resolveCallEdge classifies one call expression.
func (p *Program) resolveCallEdge(fn *Func, info *types.Info, call *ast.CallExpr, funcVals map[types.Object]*Func, skip map[ast.Node]bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return // conversion, operand walked normally
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		// Immediately-invoked literal: a call edge, and the outer walk's
		// FuncLit case must not also record a ref.
		p.addLitEdge(fn, EdgeCall, fun)
		skip[fun] = true
	case *ast.Ident:
		skip[fun] = true
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			p.addObjEdge(fn, EdgeCall, call.Pos(), obj)
		case *types.Var:
			if lit := funcVals[obj]; lit != nil {
				fn.Edges = append(fn.Edges, Edge{Kind: EdgeCall, Pos: call.Pos(), Callee: lit})
			}
			// Other function-typed variables (parameters, fields) are the
			// unresolved dynamic-call frontier; ref edges at the value's
			// creation site keep flow analyses conservative there.
		}
	case *ast.SelectorExpr:
		skip[fun] = true
		skip[fun.Sel] = true
		if sel, ok := info.Selections[fun]; ok {
			if m, ok := sel.Obj().(*types.Func); ok {
				sig, _ := m.Type().(*types.Signature)
				if sig != nil && sig.Recv() != nil {
					if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
						p.addDispatchEdges(fn, EdgeCall, call.Pos(), m, sig)
						return
					}
				}
				p.addObjEdge(fn, EdgeCall, call.Pos(), m)
				return
			}
		}
		// Package-qualified function: obs.NewDigest.
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			p.addObjEdge(fn, EdgeCall, call.Pos(), obj)
		}
	}
}

// addDispatchEdges resolves an interface method by class-hierarchy
// analysis: every in-program method with the same name and bare signature
// is a candidate callee, in ID order.
func (p *Program) addDispatchEdges(fn *Func, kind EdgeKind, pos token.Pos, m *types.Func, sig *types.Signature) {
	for _, cand := range p.methodIdx[sigKey(m.Name(), sig)] {
		fn.Edges = append(fn.Edges, Edge{Kind: kind, Pos: pos, Callee: cand})
	}
	if m.Pkg() != nil {
		fn.Extern = append(fn.Extern, ExternEdge{Kind: kind, Pos: pos, PkgPath: m.Pkg().Path(), Recv: recvName(sig), Name: m.Name()})
	}
}

// resolveSelectorRef handles method values (x.M used as a value, which
// allocates a bound closure) and package-function references.
func (p *Program) resolveSelectorRef(fn *Func, info *types.Info, sel *ast.SelectorExpr) {
	if s, ok := info.Selections[sel]; ok {
		if s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr {
			if m, ok := s.Obj().(*types.Func); ok {
				sig, _ := m.Type().(*types.Signature)
				if sig != nil && sig.Recv() != nil {
					if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
						p.addDispatchEdges(fn, EdgeRef, sel.Pos(), m, sig)
						return
					}
				}
				p.addObjEdge(fn, EdgeRef, sel.Pos(), m)
			}
		}
		return
	}
	if obj, ok := info.Uses[sel.Sel].(*types.Func); ok {
		p.addObjEdge(fn, EdgeRef, sel.Pos(), obj)
	}
}

// tarjanSCC computes strongly-connected components over all edges, in
// bottom-up order (each component is emitted only after every component it
// calls into).
func tarjanSCC(funcs []*Func) [][]*Func {
	index := make(map[*Func]int)
	low := make(map[*Func]int)
	onStack := make(map[*Func]bool)
	var stack []*Func
	var sccs [][]*Func
	next := 0

	// Iterative Tarjan, seeded in ID order for determinism.
	type frame struct {
		fn   *Func
		edge int
	}
	var visit func(root *Func)
	visit = func(root *Func) {
		frames := []frame{{fn: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			fn := f.fn
			if f.edge == 0 {
				index[fn] = next
				low[fn] = next
				next++
				stack = append(stack, fn)
				onStack[fn] = true
			}
			advanced := false
			for f.edge < len(fn.Edges) {
				w := fn.Edges[f.edge].Callee
				f.edge++
				if _, seen := index[w]; !seen {
					frames = append(frames, frame{fn: w})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[fn] {
						low[fn] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			if low[fn] == index[fn] {
				var scc []*Func
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == fn {
						break
					}
				}
				sort.Slice(scc, func(i, j int) bool { return scc[i].ID < scc[j].ID })
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].fn
				if low[fn] < low[parent] {
					low[parent] = low[fn]
				}
			}
		}
	}
	for _, fn := range funcs {
		if _, seen := index[fn]; !seen {
			visit(fn)
		}
	}
	return sccs
}
