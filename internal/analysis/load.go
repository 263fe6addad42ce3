package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// The loader. LoadProgram enumerates the full dependency closure with
// `go list -deps -json` and type-checks every package exactly once with a
// shared cache, parallelizing across independent subtrees of the import
// DAG — the old per-root source importer re-checked shared dependencies
// and ran serially, which dominated `make lint` wall-clock. Module-local
// packages keep their ASTs and type info (the call graph needs them);
// standard-library packages contribute types only.
//
// Only non-test Go files are analyzed: the determinism and precision
// contracts bind production code, and tests are where seeded randomness is
// deliberately allowed.

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
}

// LoadProgram loads patterns and their full dependency closure from dir
// and returns the whole-program view: Roots are the pattern matches, All
// is every module-local package (ASTs retained), and every dependency is
// type-checked exactly once.
func LoadProgram(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	rootList, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	rootSet := make(map[string]bool, len(rootList))
	module := ""
	for _, lp := range rootList {
		rootSet[lp.ImportPath] = true
		if lp.Module != nil && lp.Module.Path != "" {
			module = lp.Module.Path
		}
	}

	ld := newLoader(listed, module)
	if err := ld.checkAll(); err != nil {
		return nil, err
	}

	prog := &Program{}
	for _, lp := range listed {
		pkg := ld.astPkgs[lp.ImportPath]
		if pkg == nil {
			continue
		}
		prog.All = append(prog.All, pkg)
		if rootSet[lp.ImportPath] {
			prog.Roots = append(prog.Roots, pkg)
		}
	}
	sort.Slice(prog.All, func(i, j int) bool { return prog.All[i].Path < prog.All[j].Path })
	sort.Slice(prog.Roots, func(i, j int) bool { return prog.Roots[i].Path < prog.Roots[j].Path })
	return prog, nil
}

// goList runs `go list -json` with args in dir and decodes the stream.
// Packages without Go files (e.g. "unsafe" has one; pseudo-packages don't)
// are kept — the checker special-cases them.
func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("go list %v: %v: %s", args, err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list %v: %v", args, err)
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// loader type-checks a dependency-closed package set bottom-up with a
// bounded worker pool. types.Package results are the shared cache; each
// package is parsed and checked exactly once no matter how many packages
// import it.
type loader struct {
	fset   *token.FileSet
	module string
	byPath map[string]*listedPackage

	mu      sync.Mutex
	typed   map[string]*types.Package
	astPkgs map[string]*Package
	failed  error
}

func newLoader(listed []listedPackage, module string) *loader {
	ld := &loader{
		fset:    token.NewFileSet(),
		module:  module,
		byPath:  make(map[string]*listedPackage, len(listed)),
		typed:   make(map[string]*types.Package, len(listed)),
		astPkgs: make(map[string]*Package),
	}
	for i := range listed {
		lp := &listed[i]
		ld.byPath[lp.ImportPath] = lp
	}
	return ld
}

// checkAll schedules the DAG: a package becomes ready when every listed
// import is done. Workers are bounded by GOMAXPROCS.
func (ld *loader) checkAll() error {
	// Dependency counts restricted to the listed closure.
	waiting := make(map[string]int, len(ld.byPath))
	dependents := make(map[string][]string, len(ld.byPath))
	var ready []string
	for path, lp := range ld.byPath {
		n := 0
		for _, imp := range lp.Imports {
			imp = ld.resolveImport(lp, imp)
			if imp == path {
				continue
			}
			if _, ok := ld.byPath[imp]; ok {
				n++
				dependents[imp] = append(dependents[imp], path)
			}
		}
		waiting[path] = n
		if n == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)

	workers := runtime.GOMAXPROCS(0)
	if workers > len(ld.byPath) {
		workers = len(ld.byPath)
	}
	if workers < 1 {
		workers = 1
	}
	queue := make(chan string, len(ld.byPath))
	done := make(chan string, len(ld.byPath))
	for _, p := range ready {
		queue <- p
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range queue {
				ld.checkOne(path)
				done <- path
			}
		}()
	}
	for finished := 0; finished < len(ld.byPath); finished++ {
		path := <-done
		deps := dependents[path]
		sort.Strings(deps)
		for _, d := range deps {
			waiting[d]--
			if waiting[d] == 0 {
				queue <- d
			}
		}
	}
	close(queue)
	wg.Wait()
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return ld.failed
}

// resolveImport applies go list's ImportMap (vendoring, "C" shims).
func (ld *loader) resolveImport(lp *listedPackage, imp string) string {
	if lp.ImportMap != nil {
		if mapped, ok := lp.ImportMap[imp]; ok {
			return mapped
		}
	}
	return imp
}

// checkOne parses and type-checks a single package; its imports are
// guaranteed complete by the scheduler.
func (ld *loader) checkOne(path string) {
	lp := ld.byPath[path]
	if path == "unsafe" {
		ld.mu.Lock()
		ld.typed[path] = types.Unsafe
		ld.mu.Unlock()
		return
	}
	if len(lp.GoFiles) == 0 {
		return
	}
	ld.mu.Lock()
	if ld.failed != nil {
		ld.mu.Unlock()
		return
	}
	ld.mu.Unlock()

	paths := make([]string, 0, len(lp.GoFiles))
	for _, f := range lp.GoFiles {
		paths = append(paths, filepath.Join(lp.Dir, f))
	}
	var files []*ast.File
	for _, fp := range paths {
		f, err := parser.ParseFile(ld.fset, fp, nil, parser.ParseComments)
		if err != nil {
			ld.fail(err)
			return
		}
		files = append(files, f)
	}
	local := ld.module != "" && (path == ld.module || len(path) > len(ld.module) && path[:len(ld.module)+1] == ld.module+"/")
	var info *types.Info
	if local {
		info = NewInfo()
	}
	conf := types.Config{Importer: &loaderImporter{ld: ld, lp: lp}}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		ld.fail(fmt.Errorf("type-checking %s: %v", path, err))
		return
	}
	ld.mu.Lock()
	ld.typed[path] = tpkg
	if local {
		ld.astPkgs[path] = &Package{Path: path, Fset: ld.fset, Files: files, Pkg: tpkg, Info: info}
	}
	ld.mu.Unlock()
}

func (ld *loader) fail(err error) {
	ld.mu.Lock()
	if ld.failed == nil {
		ld.failed = err
	}
	ld.mu.Unlock()
}

// loaderImporter serves completed packages from the shared cache.
type loaderImporter struct {
	ld *loader
	lp *listedPackage
}

func (li *loaderImporter) Import(imp string) (*types.Package, error) {
	imp = li.ld.resolveImport(li.lp, imp)
	if imp == "unsafe" {
		return types.Unsafe, nil
	}
	li.ld.mu.Lock()
	pkg := li.ld.typed[imp]
	li.ld.mu.Unlock()
	if pkg == nil {
		return nil, fmt.Errorf("import %q not yet checked (dependency scheduling bug)", imp)
	}
	return pkg, nil
}

// LoadDir parses and type-checks every .go file directly inside dir as one
// package with the given import path. Used by the fixture runner
// (checkertest) and the geompclint smoke test, where fixtures live under
// testdata and are invisible to `go list`. The explicit import path matters:
// analyzers scope themselves by package path (e.g. deterflow's
// deterministic package set), so fixtures choose which regime they test by
// the path they claim.
func LoadDir(dir, importPath string) (*Package, error) {
	pkgs, err := LoadDirs(DirSpec{Dir: dir, ImportPath: importPath})
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// DirSpec names one fixture directory and the import path it claims.
type DirSpec struct {
	Dir        string
	ImportPath string
}

// LoadDirs type-checks several fixture directories as one mini-program, in
// the given order; later fixtures may import earlier ones by their claimed
// import path (how the interprocedural fixtures model cross-package call
// chains, e.g. an engine package and the graph package it calls back
// into). Standard library imports fall back to the source importer.
func LoadDirs(specs ...DirSpec) ([]*Package, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	fixtures := make(map[string]*types.Package)
	imp := &fixtureImporter{std: std, fixtures: fixtures}
	var out []*Package
	for _, spec := range specs {
		matches, err := filepath.Glob(filepath.Join(spec.Dir, "*.go"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		if len(matches) == 0 {
			return nil, fmt.Errorf("no .go files in %s", spec.Dir)
		}
		var files []*ast.File
		for _, path := range matches {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(spec.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", spec.ImportPath, err)
		}
		fixtures[spec.ImportPath] = tpkg
		out = append(out, &Package{Path: spec.ImportPath, Fset: fset, Files: files, Pkg: tpkg, Info: info})
	}
	return out, nil
}

// fixtureImporter resolves fixture import paths before the stdlib.
type fixtureImporter struct {
	std      types.Importer
	fixtures map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.fixtures[path]; ok {
		return pkg, nil
	}
	return fi.std.Import(path)
}
