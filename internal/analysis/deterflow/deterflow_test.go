package deterflow_test

import (
	"path/filepath"
	"testing"

	"geompc/internal/analysis"
	"geompc/internal/analysis/checkertest"
	"geompc/internal/analysis/deterflow"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"..", "testdata", "src", "deterflow"}, elem...)...)
}

// TestSinkBoundary loads a helper package outside the deterministic set and
// a sink package (base "sched") calling into it: taint from time.Now, the
// global rand source and escaping map ranges is flagged at the sink's call
// and reference edges; sorted collection, seeded sources and reasoned
// suppressions are not. The helper package itself reports nothing.
func TestSinkBoundary(t *testing.T) {
	checkertest.RunDirs(t, []analysis.DirSpec{
		{Dir: fixture("helpers"), ImportPath: "geompc/internal/core"},
		{Dir: fixture("sink"), ImportPath: "geompc/internal/sched"},
	}, deterflow.Analyzer)
}

// TestRestricted runs the fixture as a virtual-clock package: map-order
// leaks, time.Now and global rand sitting directly in it are flagged;
// sorted collection, commutative bodies and seeded construction are not.
func TestRestricted(t *testing.T) {
	checkertest.Run(t, fixture("restricted"), "geompc/internal/runtime", deterflow.Analyzer)
}

// TestFree runs the same shapes as a package outside the deterministic set:
// nothing is flagged.
func TestFree(t *testing.T) {
	checkertest.Run(t, fixture("free"), "geompc/internal/geo", deterflow.Analyzer)
}
