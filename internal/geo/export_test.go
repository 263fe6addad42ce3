package geo

import (
	"math"
	"testing"
)

// hostLaneWidth is the row-path width chosen at init, before any test
// forces another.
var hostLaneWidth = laneWidth

// forEachLaneWidth runs f once per row-path width of the bound kernels —
// Go (every entry through Cov), AVX2, AVX-512 — with the package
// forced to it, and skips by name the widths this host cannot run (including
// both vector widths where the init-time exp probe refused the lanes). This
// hook is the only way to choose a kernel, and it exists only in the
// package's own tests.
func forEachLaneWidth(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, w := range []int{0, 4, 8} {
		name := map[int]string{0: "Go", 4: "AVX2", 8: "AVX-512"}[w]
		t.Run(name, func(t *testing.T) {
			if w > hostLaneWidth {
				t.Skipf("this host has no %s lanes", name)
			}
			laneWidth = w
			defer func() { laneWidth = hostLaneWidth }()
			f(t)
		})
	}
}

// everywhere is the span [0, +Inf]: a Matérn kernel bound over it builds
// every panel of its table.
func everywhere() (lo, hi float64) { return 0, math.Inf(1) }

// spanOf is the span [lo, hi].
func spanOf(lo, hi float64) func() (float64, float64) {
	return func() (float64, float64) { return lo, hi }
}
