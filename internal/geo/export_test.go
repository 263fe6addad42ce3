package geo

import "testing"

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

const (
	panelUnbuilt = iota
	panelReady
	panelDirect // g is not finite at some node: no table for this panel
)

// state reports panel p's build state.
func (t *maternTable) state(p uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.isReady(p):
		return panelReady
	case t.direct[p]:
		return panelDirect
	}
	return panelUnbuilt
}
