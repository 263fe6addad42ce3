package plan_test

// The cache's concurrency contract under the race detector: many goroutines
// hammer one Cache through cholesky.RunCached — the shared-cache sweep
// shape — and every result must stay bit-identical to a serial reference
// (flow_test.go hammers the cache's internals directly).

import (
	"sync"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/plan"
)

// TestRunCachedSharedAcrossGoroutines is the shared-cache sweep scenario:
// one cache, many concurrent RunCached callers alternating two precision
// maps over the same shape. Whoever wins each compile race is scheduling-
// dependent, but every returned result — digest and factor bits — must be
// identical to the serial reference for its map.
func TestRunCachedSharedAcrossGoroutines(t *testing.T) {
	refTight, err := cholesky.Run(newConfig(t, 5, 1, 2, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	refLoose, err := cholesky.Run(newConfig(t, 5, 1, 2, 1e-2))
	if err != nil {
		t.Fatal(err)
	}
	wantTight := newConfig(t, 5, 1, 2, 1e-8)
	if _, err := cholesky.Run(wantTight); err != nil {
		t.Fatal(err)
	}
	tightBits := factorBits(wantTight.Matrix, wantTight.Desc)

	cache := plan.NewCache(nil)
	const workers, iters = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ureq, want := 1e-8, refTight.Digest()
				if (w+i)%2 == 1 {
					ureq, want = 1e-2, refLoose.Digest()
				}
				cfg := newConfig(t, 5, 1, 2, ureq)
				res, err := cholesky.RunCached(cfg, cache)
				if err != nil {
					errs <- err
					return
				}
				if res.Digest() != want {
					t.Errorf("worker %d iter %d (u=%g): digest %016x != serial %016x",
						w, i, ureq, res.Digest(), want)
				}
				if ureq == 1e-8 {
					sameBits(t, tightBits, factorBits(cfg.Matrix, cfg.Desc), "shared-cache factor")
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses == 0 {
		t.Errorf("shared cache never compiled: %+v", s)
	}
}
