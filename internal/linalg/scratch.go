package linalg

import (
	"math/bits"
	"sync"
)

// Scratch pools avoid per-kernel allocation churn: the mixed-precision
// emulations pack their operands into typed staging buffers on every call,
// which would otherwise dominate GC time for small tiles. Buffers grow to
// the next power of two so a sequence of slightly-different tile shapes
// (remainder tiles, mixed m/n/k) settles on one capacity instead of
// reallocating at each new size.
//
// A scratch call returns the buffer and the pooled pointer that owns it;
// the kernel hands that same pointer back to put. (Putting the address of
// a by-value slice instead heap-allocates one slice header per call.)

func scratchCap(n int) int {
	if n <= 4096 {
		return 4096
	}
	return 1 << bits.Len(uint(n-1))
}

var (
	f32Pool = sync.Pool{New: func() any { s := make([]float32, 0, 4096); return &s }}
	f64Pool = sync.Pool{New: func() any { s := make([]float64, 0, 4096); return &s }}
)

func poolOf[T float32 | float64]() *sync.Pool {
	if is64[T]() {
		return &f64Pool
	}
	return &f32Pool
}

func getScratch[T float32 | float64](n int) ([]T, *[]T) {
	p := poolOf[T]().Get().(*[]T)
	if cap(*p) < n {
		*p = make([]T, n, scratchCap(n))
	}
	return (*p)[:n], p
}

func putScratch[T float32 | float64](p *[]T) { poolOf[T]().Put(p) }
