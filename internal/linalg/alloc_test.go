//go:build !race

package linalg

import (
	"testing"

	"geompc/internal/prec"
)

// TestKernelsSteadyStateAllocFree pins the heap allocations of one tile-kernel
// call on a 64-tile (and a 49-tile, whose last rows and columns fill no
// whole block at any width) once the scratch pools are warm (AllocsPerRun makes one
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
	gemm := func(p prec.Precision, m int) func() {
		return func() { GemmNTPrec(p, m, m, m, -1, a, n, a, n, 0, c, n) }
	}
	var ao, bo Operand
	pack := func(p prec.Precision, m int) func() {
		return func() { ao.Pack(p, m, m, a, n, true); ao.Release() }
	}
	for _, k := range []struct {
		name string
		call func()
	}{
		{"GemmNT64", func() { GemmNTPrec(prec.FP64, n, n, n, -1, a, n, a, n, 0, c, n) }},
		{"GemmNT32/64", gemm(prec.FP32, 64)},
		{"GemmNT32/49", gemm(prec.FP32, 49)},
		{"GemmNTFP16x32/49", gemm(prec.FP16x32, 49)},
		{"GemmNTFP16/64", gemm(prec.FP16, 64)},
		{"GemmNTFP16/49", gemm(prec.FP16, 49)},
		{"TrsmRLT32/64", func() { TrsmRLT32(n, n, tri, n, c, n) }},
		{"TrsmRLT32/49", func() { TrsmRLT32(49, 49, tri, n, c, n) }},
		{"TrsmRLT/64", func() { TrsmRLT(n, n, tri, n, c, n) }},
		{"TrsmRLT/49", func() { TrsmRLT(49, 49, tri, n, c, n) }},
		{"PotrfLower/64", potrf(64, spd64)},
		{"PotrfLower/49", potrf(49, spd49)},
	} {
		if got := testing.AllocsPerRun(20, k.call); got != 0 {
			t.Errorf("%s: %v allocs per call in steady state, want 0", k.name, got)
		}
	}
	// Pack and GemmNTPacked in every float32-accumulate format the
	// factorization runs, at both tile sizes.
	for _, p := range []prec.Precision{prec.FP32, prec.FP16x32, prec.FP16} {
		for _, m := range []int{49, 64} {
			if got := testing.AllocsPerRun(20, pack(p, m)); got != 0 {
				t.Errorf("Pack %s/%d: %v allocs per call in steady state, want 0", p, m, got)
			}
			ao.Pack(p, m, m, a, n, false)
			bo.Pack(p, m, m, a, n, true)
			if got := testing.AllocsPerRun(20, func() { GemmNTPacked(-1, &ao, &bo, 1, c, n) }); got != 0 {
				t.Errorf("GemmNTPacked %s/%d: %v allocs per call in steady state, want 0", p, m, got)
			}
			ao.Release()
			bo.Release()
		}
	}
}
