package cholesky

import (
	"errors"
	"fmt"
	gort "runtime"
	"testing"

	"geompc/internal/linalg"
	"geompc/internal/plan"
)

// factorOnce factors one of two identical problems and returns its factor
// digest and numeric failure: a, live (fresh), or b, through a plan cache
// primed with a — a hit, so bodies alone, no event loop.
func factorOnce(t *testing.T, a, b Config, replayed bool) (uint64, error) {
	t.Helper()
	var res *Result
	var err error
	if !replayed {
		res, err = Run(a)
	} else {
		cache := plan.NewCache(nil)
		if _, err = RunCached(a, cache); err == nil {
			a = b
			res, err = RunCached(b, cache)
		}
		if s := cache.Stats(); err == nil && s.Hits != 1 {
			t.Fatalf("b did not replay a's plan: %+v", s)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return factorDigest(a.Matrix), res.Err
}

// TestFactorDigestAcrossGOMAXPROCSAndReplay: bodies run in dataflow order on
// GOMAXPROCS goroutines, whatever the simulated schedule. The factor must
// not depend on how many there are, or on whether an event loop ran around
// the bodies.
func TestFactorDigestAcrossGOMAXPROCSAndReplay(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(0))
	var want uint64
	for _, procs := range []int{1, 2, 8} {
		gort.GOMAXPROCS(procs)
		for _, replayed := range []bool{false, true} {
			a, b := buildNumericConfig(t, 6, 2, 2)
			got, err := factorOnce(t, a, b, replayed)
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				want = got
			}
			if got != want {
				t.Errorf("GOMAXPROCS %d replayed=%v: factor digest %#x, want %#x", procs, replayed, got, want)
			}
		}
	}
}

// TestNonSPDRunIsDeterministic: a matrix whose fourth diagonal tile is
// indefinite, factored once at GOMAXPROCS 1 and twenty times at 8, fresh
// and replayed. POTRF(3) fails; exactly its descendants are skipped, and
// the updates of the first three panels that do not pass through it still
// run — so there is one error and one set of bits, however the bodies
// interleave.
func TestNonSPDRunIsDeterministic(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(1))
	run := func(replayed bool) (uint64, error) {
		a, b := buildNumericConfig(t, 6, 1, 1)
		a.Matrix.At(3, 3).Data[0] = -5
		b.Matrix.At(3, 3).Data[0] = -5
		return factorOnce(t, a, b, replayed)
	}
	want, wantErr := run(false)
	if !errors.Is(wantErr, linalg.ErrNotPositiveDefinite) || wantErr.Error()[:9] != "POTRF(3):" {
		t.Fatalf("numeric failure %v, want POTRF(3) not positive definite", wantErr)
	}
	gort.GOMAXPROCS(8)
	for rep := 0; rep < 20; rep++ {
		got, err := run(rep%2 == 1)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("run %d: digest %#x error %v, want %#x %v", rep, got, err, want, wantErr)
		}
	}
}
