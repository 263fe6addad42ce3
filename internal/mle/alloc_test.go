//go:build !race

package mle

import (
	"runtime"
	"testing"
)

// TestNegLogLikSteadyStateAllocation measures what one evaluation of the
// 400-point problem allocates once the Problem holds its buffer. Σ(θ) alone
// is 655 kB; an evaluation that allocated it again would show here at once.
// Not built under -race, where sync.Pool drops a quarter of its Puts on
// purpose and the kernels' scratch buffers are allocated again.
func TestNegLogLikSteadyStateAllocation(t *testing.T) {
	p := maternProblem(t)
	theta := []float64{1, 0.03, 1}
	eval := func() {
		if _, err := p.NegLogLik(theta, nil); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, eval)
	t.Logf("%d bytes, %.0f allocations per evaluation", bytes, allocs)
	if bytes > 100e3 {
		t.Errorf("%d bytes allocated per evaluation, want at most 100 kB (measured: 64 kB; 997 kB with Σ(θ) allocated per call)", bytes)
	}
	if allocs > 600 {
		t.Errorf("%.0f allocations per evaluation, want at most 600 (measured: 378)", allocs)
	}
}
