package analysis

// Site detectors of precflow and deterflow: each analyzer's direct report
// and its taint summary must agree on what a lossy conversion or an
// order-leaking map range *is*, or a finding could appear at the root and
// be invisible to the call chains above it.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// InspectOwn walks fn's own body, skipping nested function literals — each
// literal is its own call-graph node and analyzes its own body. When fn
// itself is a literal, its body is the root and still walked.
func InspectOwn(fn *Func, visit func(ast.Node) bool) {
	body := fn.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return visit(n)
	})
}

// LossyConversion reports whether call is a lossy numeric conversion
// outside the audited API's shape: float64→float32, or float→uint16 (the
// raw-FP16-bits smell). Constant conversions are exact at compile time and
// exempt. The returned description names the conversion.
func LossyConversion(info *types.Info, call *ast.CallExpr) (string, bool) {
	target, ok := IsConversion(info, call)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	arg := call.Args[0]
	if IsConstant(info, arg) {
		return "", false
	}
	tb, ok := target.Underlying().(*types.Basic)
	if !ok {
		return "", false
	}
	from := BasicKind(info, arg)
	switch tb.Kind() {
	case types.Float32:
		if from == types.Float64 {
			return "float64→float32 conversion", true
		}
	case types.Uint16:
		if from == types.Float32 || from == types.Float64 {
			return "float→uint16 conversion", true
		}
	}
	return "", false
}

// FloatBitsTwiddle reports whether bin shifts or masks a math.Float32bits
// result — `bits >> 16` is a literal BF16 truncation, mantissa masks a
// literal TF32/FP16 round-to-zero.
func FloatBitsTwiddle(info *types.Info, bin *ast.BinaryExpr) bool {
	switch bin.Op {
	case token.SHR, token.AND, token.AND_NOT:
	default:
		return false
	}
	call, ok := bin.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	pkg, name, ok := CalleePkgFunc(info, call)
	return ok && pkg == "math" && name == "Float32bits"
}

// MapRangeEscapes reports whether rng iterates a map in an order that can
// escape: the body is neither provably order-insensitive (map writes and
// deletes keyed by the range variable, integer counter updates) nor the
// collect-into-slices-then-sort idiom. encl is the enclosing function body
// searched for the laundering sort call.
func MapRangeEscapes(info *types.Info, encl ast.Node, rng *ast.RangeStmt) bool {
	if !IsMap(info, rng.X) {
		return false
	}
	if orderInsensitiveBody(info, rng.Body.List) {
		return false
	}
	if targets, ok := appendOnlyBody(info, rng.Body.List); ok && sortedAfter(info, encl, rng.End(), targets) {
		return false
	}
	return true
}

// orderInsensitiveBody reports whether every statement commutes across
// iterations: map index writes and deletes (distinct keys per iteration),
// integer/bool counter updates, and continue. Floating-point accumulation is
// deliberately not on the list — float addition does not commute bit-exactly.
func orderInsensitiveBody(info *types.Info, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if !orderInsensitiveAssign(info, s) {
				return false
			}
		case *ast.IncDecStmt:
			if !integerKind(BasicKind(info, s.X)) {
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !IsBuiltinCall(info, call, "delete") {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func orderInsensitiveAssign(info *types.Info, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	if _, isIndex := s.Lhs[0].(*ast.IndexExpr); isIndex {
		// m[k] = v / m[k] += v: one key per iteration, order-free as long as
		// the indexed container is a map (slice writes at computed indexes
		// would also be fine, but keep to the common case).
		return IsMap(info, s.Lhs[0].(*ast.IndexExpr).X)
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return integerKind(BasicKind(info, s.Lhs[0]))
	}
	return false
}

func integerKind(k types.BasicKind) bool {
	switch k {
	case types.Int, types.Int8, types.Int16, types.Int32, types.Int64,
		types.Uint, types.Uint8, types.Uint16, types.Uint32, types.Uint64, types.Uintptr:
		return true
	}
	return false
}

// appendOnlyBody reports whether the body only appends to local slices,
// returning the rendered append targets.
func appendOnlyBody(info *types.Info, stmts []ast.Stmt) (targets []string, ok bool) {
	for _, s := range stmts {
		as, isAssign := s.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
			return nil, false
		}
		call, isCall := as.Rhs[0].(*ast.CallExpr)
		if !isCall || !IsBuiltinCall(info, call, "append") || len(call.Args) == 0 {
			return nil, false
		}
		lhs := types.ExprString(as.Lhs[0])
		if lhs != types.ExprString(call.Args[0]) {
			return nil, false
		}
		targets = append(targets, lhs)
	}
	return targets, len(targets) > 0
}

// sortedAfter reports whether, after pos, the enclosing body calls into
// package sort or slices with one of the append targets among the
// arguments — the collect-then-sort idiom that launders map order away.
func sortedAfter(info *types.Info, encl ast.Node, pos token.Pos, targets []string) bool {
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		pkg, _, ok := CalleePkgFunc(info, call)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			a := types.ExprString(arg)
			for _, t := range targets {
				if a == t {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
