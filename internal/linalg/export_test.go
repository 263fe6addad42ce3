package linalg

import (
	"testing"

	"geompc/internal/prec"
)

// hostW and hostF16C are the micro-kernels chosen at init, before any test
// forces others.
var hostW, hostF16C = vecWidth, useF16C

func (w width) String() string {
	return map[width]string{widthGo: "Go", widthSSE2: "SSE2", widthAVX2: "AVX2", widthAVX512: "AVX-512"}[w]
}

// forEachWidth runs f once per FP64 micro-kernel width — the pure-Go
// reference, SSE2, AVX2, AVX-512 — with the package forced to that width,
// and skips by name the widths this host cannot run. The pure-Go
// instantiation is pure Go throughout: it also turns the F16C binary16
// kernel off, the others run it where the host has it. This hook is the
// only way to choose a kernel, and it exists only in the package's own
// tests.
func forEachWidth(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, w := range []width{widthGo, widthSSE2, widthAVX2, widthAVX512} {
		t.Run(w.String(), func(t *testing.T) {
			if w > hostW {
				t.Skipf("this host has no %s", w)
			}
			vecWidth, useF16C = w, hostF16C && w != widthGo
			defer func() { vecWidth, useF16C = hostW, hostF16C }()
			f(t)
		})
	}
}

// syrkLN is the FP64 SYRK on unpacked A: it packs A for this one call and
// runs SyrkLNPacked.
func syrkLN(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	var ao Operand
	ao.Pack(prec.FP64, n, k, a, lda, true)
	SyrkLNPacked(alpha, &ao, beta, c, ldc)
	ao.Release()
}
