// Package checkertest runs analyzers over fixture packages and compares the
// diagnostics against `// want` annotations — the same contract as
// golang.org/x/tools/go/analysis/analysistest, rebuilt on the in-repo
// framework. A fixture line asserts its diagnostics with one or more quoted
// regular expressions:
//
//	for k := range m { // want `range over map`
//
// Every diagnostic must be matched by a want on its line, and every want
// must match a diagnostic; either mismatch fails the test. Fixtures live
// under internal/analysis/testdata and declare their package path
// explicitly, because analyzers scope themselves by import path.
package checkertest

import (
	"fmt"
	"go/ast"
	"regexp"
	"strings"
	"testing"

	"geompc/internal/analysis"
)

// want is one expected-diagnostic annotation.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run type-checks the fixture directory as importPath, applies the
// analyzers through the driver (so //geompc:nolint handling is part of what
// fixtures exercise), and asserts the want annotations.
func Run(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	RunDirs(t, []analysis.DirSpec{{Dir: dir, ImportPath: importPath}}, analyzers...)
}

// RunDirs type-checks several fixture directories as one mini-program (in
// order, so later fixtures may import earlier ones by their claimed import
// path), runs the analyzers over every package through the driver, and
// asserts the want annotations across all of them. This is how the
// interprocedural fixtures model cross-package call chains: a taint rooted
// in one fixture package surfaces as a finding in another.
func RunDirs(t *testing.T, specs []analysis.DirSpec, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkgs, err := analysis.LoadDirs(specs...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags := analysis.Run(pkgs, analyzers)

	var wants []*want
	for _, pkg := range pkgs {
		ws, err := parseWants(pkg)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, ws...)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unhit want matching d and reports success.
func claim(wants []*want, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Analyzer + ": " + d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// wantMarker introduces expectations inside a comment; each following
// quoted string (back-quoted or double-quoted) is one expected-diagnostic
// regexp.
const wantMarker = "// want "

var wantArg = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants extracts want annotations from every fixture file.
func parseWants(pkg *analysis.Package) ([]*want, error) {
	var out []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ws, err := parseWantComment(pkg, c)
				if err != nil {
					return nil, err
				}
				out = append(out, ws...)
			}
		}
	}
	return out, nil
}

func parseWantComment(pkg *analysis.Package, c *ast.Comment) ([]*want, error) {
	idx := strings.Index(c.Text, wantMarker)
	if idx < 0 {
		return nil, nil
	}
	pos := pkg.Fset.Position(c.Pos())
	args := c.Text[idx+len(wantMarker):]
	matches := wantArg.FindAllString(args, -1)
	if len(matches) == 0 {
		return nil, fmt.Errorf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
	}
	var out []*want
	for _, m := range matches {
		pat := m[1 : len(m)-1] // strip quotes; escapes inside "" are left to the regexp
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, m, err)
		}
		out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
	}
	return out, nil
}
