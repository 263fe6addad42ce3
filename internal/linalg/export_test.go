package linalg

import "testing"

// hostW is the micro-kernel width chosen at init, before any test forces
// another.
var hostW = vecWidth

func (w width) String() string {
	return map[width]string{widthGo: "Go", widthSSE2: "SSE2", widthAVX2: "AVX2", widthAVX512: "AVX-512"}[w]
}

// forEachWidth runs f once per FP64 micro-kernel width — the pure-Go
// reference, SSE2, AVX2, AVX-512 — with the package forced to that width,
// and skips by name the widths this host cannot run. This hook is the only
// way to choose a width, and it exists only in the package's own tests.
func forEachWidth(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, w := range []width{widthGo, widthSSE2, widthAVX2, widthAVX512} {
		t.Run(w.String(), func(t *testing.T) {
			if w > hostW {
				t.Skipf("this host has no %s", w)
			}
			vecWidth = w
			defer func() { vecWidth = hostW }()
			f(t)
		})
	}
}
