// Package precflow enforces the precision-safety contract: the Higham–Mary
// rule (‖A_ij‖·NT/‖A‖ ≤ u_req/u_low) evaluated by the precision selector is
// the *only* decision point allowed to lower precision, and the audited
// conversion API — prec.Quantize and the internal/fp16 rounding kernels —
// is the only code allowed to implement the lowering. These are the software
// analogues of the paper's STC/TTC conversion points: every byte that moves
// at reduced precision passes through them, which is what makes the error
// accounting and the per-precision byte counters trustworthy. The analyzer
// flags a lossy down-cast where it is written and every *call chain* that
// reaches one, so a float32(x) wrapped in a helper or hidden behind an
// interface is caught at each unaudited entry point:
//
//   - A lowering site is a lossy numeric conversion — float32(x) from a
//     float64, uint16(x) from any float (the raw-FP16-bits smell);
//     constants are exact at compile time and exempt — or shift/mask
//     bit-twiddling on math.Float32bits (>>16 BF16 truncation, TF32/FP16
//     mantissa masks), where rounding must come from
//     fp16.BF16Round/TF32Round/Round. Sites under a reasoned
//     //geompc:nolint precflow are audited and clean.
//
//   - The audited conversion API sanitizes: any edge crossing from outside
//     into internal/fp16, internal/prec or internal/linalg (the paper's
//     STC/TTC conversion points and their quantizing kernels) stops
//     propagation — calling prec.Quantize is the *correct* way to lower
//     precision and never taints the caller.
//
// Facts propagate bottom-up over call-graph SCCs through static calls,
// interface dispatch, closures and method values. A finding, always in a
// package outside the audited set, is either the root lowering itself (the
// zero-length chain) or a call or reference to a function (also outside the
// set) whose summary reaches one; a fix at the root clears every layer.
package precflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"

	"geompc/internal/analysis"
)

// Name is the analyzer name, usable in //geompc:nolint directives.
const Name = "precflow"

// Analyzer is the precflow instance registered with the driver.
var Analyzer = &analysis.Analyzer{
	Name:    Name,
	Doc:     "flags lossy precision lowerings, and the call chains that reach one, outside the audited prec/fp16/linalg conversion API",
	Prepare: prepare,
	Run:     run,
}

// AuditedPkgs implement the audited conversion API (fp16, prec) or are its
// quantizing consumers (the linalg mixed-precision kernels, whose packing
// loops are the STC conversion points themselves).
var AuditedPkgs = map[string]bool{
	"fp16": true, "prec": true, "linalg": true,
}

// Facts computes (or returns) the lowering summary: for each function, the
// earliest unaudited lowering it can reach, or nil.
func Facts(prog *analysis.Program) map[*analysis.Func]*analysis.Taint {
	return prog.Flow(analysis.FlowSpec{
		Key: "lowering",
		Direct: func(fn *analysis.Func) *analysis.Taint {
			return directLowering(prog, fn)
		},
		Block: func(fn *analysis.Func, e analysis.Edge) bool {
			// Crossing into the audited API is the sanctioned conversion
			// point; inside the audited set everything may flow.
			return !AuditedPkgs[filepath.Base(fn.Pkg.Path)] && AuditedPkgs[filepath.Base(e.Callee.Pkg.Path)]
		},
	})
}

func prepare(prog *analysis.Program) { Facts(prog) }

// lowering classifies one syntax node: what names a lossy site in taint
// chains, msg is the finding for one written outside the audited set. Both
// are empty for any other node, so the direct report and the summary agree
// on what a lowering is.
func lowering(info *types.Info, n ast.Node) (what, msg string) {
	switch n := n.(type) {
	case *ast.CallExpr:
		switch what, _ = analysis.LossyConversion(info, n); what {
		case "float64→float32 conversion":
			msg = "lossy float64→float32 conversion outside the audited precision API — use prec.Quantize or an internal/fp16 rounding kernel (the STC/TTC conversion points)"
		case "float→uint16 conversion":
			msg = "float→uint16 conversion outside internal/fp16 — raw FP16/BF16 bit patterns must come from fp16.FromFloat32"
		}
	case *ast.BinaryExpr:
		if analysis.FloatBitsTwiddle(info, n) {
			return "math.Float32bits bit-twiddling", "literal half-precision bit-twiddling on math.Float32bits — use fp16.BF16Round/TF32Round/FromFloat32 so the conversion stays audited"
		}
	}
	return what, msg
}

// directLowering finds the function's first unaudited lossy site.
func directLowering(prog *analysis.Program, fn *analysis.Func) *analysis.Taint {
	var taint *analysis.Taint
	analysis.InspectOwn(fn, func(n ast.Node) bool {
		if what, _ := lowering(fn.Pkg.Info, n); taint == nil && what != "" && !prog.SuppressedAt(fn.Pkg.Fset, n.Pos(), Name) {
			taint = &analysis.Taint{What: what, Pos: n.Pos(), CallPos: n.Pos()}
		}
		return taint == nil
	})
	return taint
}

// run reports, in a package outside the audited set, every lowering site
// and every call or reference that reaches an unaudited lowering.
func run(pass *analysis.Pass) {
	if AuditedPkgs[analysis.PkgBase(pass)] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, msg := lowering(pass.Info, n); msg != "" {
				pass.Reportf(n.Pos(), "%s", msg)
			}
			return true
		})
	}
	analysis.ReportTaintedEdges(pass, Facts(pass.Prog), AuditedPkgs, func(verb string, callee *analysis.Func, t *analysis.Taint, chain string) string {
		return fmt.Sprintf("%s %s reaches an unaudited %s (%s) — route the lowering through prec.Quantize or an internal/fp16 rounding kernel (the STC/TTC conversion points)",
			verb, callee.Name, t.What, chain)
	})
}
