// Package lockcheck guards the two lock mistakes the stock vet passes miss
// and that matter in this repo's concurrent paths (the metrics registry read
// by trace export while workers update it, and the plan cache shared by
// sweep workers):
//
//   - a sync.Mutex/RWMutex Lock (or RLock) with no matching Unlock the
//     analyzer can see reaching function exit: either a deferred Unlock
//     after the Lock in the same block, or a plain Unlock later in the same
//     statement list (the straight-line bracket idiom used throughout
//     internal/obs). An Unlock hidden inside one branch of an if/switch
//     does not count — that is exactly the shape that leaks a lock on the
//     other branch.
//
//   - passing a value (not pointer) whose type transitively contains a
//     mutex to an interface-typed parameter — fmt.Printf("%+v", engine) is
//     the classic: the copylocks vet check misses it because the copy
//     happens at the interface boxing, and the copied lock state tears.
package lockcheck

import (
	"go/ast"
	"go/types"

	"geompc/internal/analysis"
)

// Analyzer is the lockcheck instance registered with the driver.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "flags Lock calls with no dominated or deferred Unlock, and mutex-bearing values boxed into interfaces",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockPairs(pass, fd)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkInterfaceBoxing(pass, call)
			}
			return true
		})
	}
}

// lockSite is one Lock/Unlock call, located by the statement list (block)
// holding it and its index there.
type lockSite struct {
	recv     string // receiver expression as written, e.g. "r.mu"
	method   string
	pos      int // index within block
	block    *ast.BlockStmt
	deferred bool
	node     ast.Node
}

// checkLockPairs walks fd's blocks and verifies every Lock/RLock is
// bracketed by an Unlock/RUnlock on the same receiver.
func checkLockPairs(pass *analysis.Pass, fd *ast.FuncDecl) {
	var locks, unlocks []lockSite
	var walkBlock func(b *ast.BlockStmt)
	record := func(b *ast.BlockStmt, i int, call *ast.CallExpr, deferred bool) {
		recv, method, ok := analysis.MutexMethod(pass.Info, call)
		if !ok {
			return
		}
		site := lockSite{recv: recv, method: method, pos: i, block: b, deferred: deferred, node: call}
		switch method {
		case "Lock", "RLock":
			if !deferred {
				locks = append(locks, site)
			}
		case "Unlock", "RUnlock":
			unlocks = append(unlocks, site)
		}
	}
	walkBlock = func(b *ast.BlockStmt) {
		if b == nil {
			return
		}
		for i, s := range b.List {
			switch s := s.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					record(b, i, call, false)
				}
			case *ast.DeferStmt:
				record(b, i, s.Call, true)
			}
			// Recurse into nested blocks; nested sites keep their own block.
			ast.Inspect(s, func(n ast.Node) bool {
				if inner, ok := n.(*ast.BlockStmt); ok {
					walkBlock(inner)
					return false
				}
				return true
			})
		}
	}
	walkBlock(fd.Body)

	for _, l := range locks {
		if !bracketed(l, unlocks) {
			pass.Reportf(l.node.Pos(), "%s.%s has no deferred or same-block %s before function exit — a panic or early return leaks the lock", l.recv, l.method, unlockName(l.method))
		}
	}
}

// bracketed reports whether some unlock releases l: a matching deferred or
// plain Unlock later in l's own statement list.
func bracketed(l lockSite, unlocks []lockSite) bool {
	want := unlockName(l.method)
	for _, u := range unlocks {
		if u.recv != l.recv || u.method != want {
			continue
		}
		if u.block == l.block && u.pos > l.pos {
			return true
		}
	}
	return false
}

func unlockName(lock string) string {
	if lock == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// checkInterfaceBoxing flags call arguments that copy a mutex-bearing value
// into an interface parameter.
func checkInterfaceBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at, ok := pass.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if types.IsInterface(at.Type) {
			continue // already boxed upstream; the copy happened there
		}
		if _, isPtr := at.Type.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if analysis.ContainsMutex(at.Type) {
			pass.Reportf(arg.Pos(), "passing %s by value copies its mutex into an interface — pass a pointer (vet's copylocks cannot see this boxing)", types.ExprString(arg))
		}
	}
}

// paramType returns the static type of argument i, unrolling variadics.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}
