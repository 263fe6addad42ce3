//go:build !race

package linalg

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestF16CRoundTripExhaustiveAll is TestF16CRoundTripExhaustive over every
// one of the 2³² float32 values (each with both signs applied: every value
// twice), spread over the cores. Skipped under -short, and not built under
// the race detector, which slows the sweep tenfold and has nothing to find
// in it.
func TestF16CRoundTripExhaustiveAll(t *testing.T) {
	if !hostF16C {
		t.Skip("this host has no F16C")
	}
	if testing.Short() {
		t.Skip("2³² conversions")
	}
	var wg sync.WaitGroup
	workers := uint64(runtime.GOMAXPROCS(0))
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer leaveFlush32(enterFlush32())
			var x [8]float32
			for b := w << 3; b < 1<<31 && !t.Failed(); b += workers << 3 {
				for jj := range x {
					x[jj] = math.Float32frombits(uint32(b) + uint32(jj))
				}
				if bad := f16cRoundTrip(&x); bad != "" {
					t.Error(bad)
				}
			}
		}()
	}
	wg.Wait()
}
