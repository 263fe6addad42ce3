package bessel

import "testing"

// hostLaneWidth is the lane width chosen at init, before any test forces
// another.
var hostLaneWidth = laneWidth

// forEachLaneWidth runs f once per width of an Order's loops — scalar,
// AVX2, AVX-512 — with the package forced to it, and skips by name the
// widths this host cannot run. This hook is the only way to choose a width,
// and it exists only in the package's own tests.
func forEachLaneWidth(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, w := range []int{0, 4, 8} {
		name := map[int]string{0: "scalar", 4: "AVX2", 8: "AVX-512"}[w]
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
