// Package analysis is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast, go/parser and go/types (the x/tools module is not
// vendored here, and the toolchain image is offline). It exists to make the
// repo's two load-bearing conventions machine-checked instead of
// convention-checked:
//
//   - Determinism: golden FNV-1a schedule/kernel digests and plan replay
//     demand that nothing feeding a digest, schedule, trace or metrics
//     snapshot depends on map iteration order or wall-clock time.
//   - Precision safety: the Higham–Mary rule (‖A_ij‖·NT/‖A‖ ≤ u_req/u_low)
//     is the only place precision may be lowered, so every lossy numeric
//     down-cast must route through the audited conversion API in
//     internal/fp16 / internal/prec (the software analogue of the paper's
//     STC/TTC conversion points).
//
// The concrete analyzers live in subpackages (deterflow, precflow,
// lockcheck, hotalloc); cmd/geompclint is the multichecker binary that runs
// them all. Diagnostics can be suppressed per line with a mandatory-reason
// directive:
//
//	//geompc:nolint <analyzer> <reason>
//
// and allocation-sensitive functions opt into hotalloc with a doc-comment
// directive:
//
//	//geompc:hot
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Mirrors x/tools' analysis.Analyzer closely
// enough that these could be ported to the real framework verbatim if the
// dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //geompc:nolint directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Prepare, when set, runs once per driver invocation before any Run,
	// with the whole program in hand. Interprocedural analyzers compute
	// their call-graph summaries here (serially, so summary-level
	// suppression marking needs no locking); Run then only reports.
	Prepare func(*Program)
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the whole-program view (call graph, summaries). Always set
	// by the driver; intraprocedural analyzers ignore it.
	Prog *Program

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// sortDiagnostics orders diagnostics by (file, line, column, analyzer,
// message) so output is stable regardless of analyzer scheduling.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
