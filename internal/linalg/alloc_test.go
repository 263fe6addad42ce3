//go:build !race

package linalg

import (
	"testing"

	"geompc/internal/prec"
)

// TestKernelsSteadyStateAllocFree pins the heap allocations of one tile-kernel
// call on a 64-tile once the scratch pools are warm (AllocsPerRun makes one
// warm-up call before it counts). The kernels are called millions of times
// per fit; one slice header per scratch buffer is the regression this
// catches. Not built under -race, where sync.Pool drops a quarter of its
// Puts on purpose.
func TestKernelsSteadyStateAllocFree(t *testing.T) {
	const n = 64
	a := benchMatrix(n, n)
	tri := benchTriangle(a, n)
	c := make([]float64, n*n)
	spd64, spd49 := benchTriangle(benchSPD(64), 64), benchTriangle(benchSPD(49), 49)
	potrf := func(n int, spd []float64) func() {
		return func() {
			copy(c, spd)
			if err := PotrfLower(n, c, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range []struct {
		name string
		call func()
	}{
		{"GemmNT64", func() { GemmNTPrec(prec.FP64, n, n, n, -1, a, n, a, n, 0, c, n) }},
		{"GemmNT32", func() { GemmNTPrec(prec.FP32, n, n, n, -1, a, n, a, n, 0, c, n) }},
		{"GemmNTFP16", func() { GemmNTPrec(prec.FP16, n, n, n, -1, a, n, a, n, 0, c, n) }},
		{"TrsmRLT32", func() { TrsmRLT32(n, n, tri, n, c, n) }},
		{"TrsmRLT/64", func() { TrsmRLT(n, n, tri, n, c, n) }},
		{"TrsmRLT/49", func() { TrsmRLT(49, 49, tri, n, c, n) }},
		{"PotrfLower/64", potrf(64, spd64)},
		{"PotrfLower/49", potrf(49, spd49)},
	} {
		if got := testing.AllocsPerRun(20, k.call); got != 0 {
			t.Errorf("%s: %v allocs per call in steady state, want 0", k.name, got)
		}
	}
}
