package plan_test

// Cache flow: miss → compile, hit → replay, precision-map change →
// invalidation → recompile, all with results indistinguishable from fresh
// runs.

import (
	"errors"
	"strings"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/linalg"
	"geompc/internal/plan"
)

func TestRunCachedFlow(t *testing.T) {
	const nt, ranks, dev = 5, 2, 2
	cache := plan.NewCache(nil)

	// Miss: first run of the shape compiles.
	c1 := newConfig(t, nt, ranks, dev, 1e-8)
	r1, err := cholesky.RunCached(c1, cache)
	if err != nil {
		t.Fatalf("miss run: %v", err)
	}
	want := factorBits(c1.Matrix, c1.Desc)
	if s := cache.Stats(); s != (plan.Stats{Misses: 1}) {
		t.Fatalf("after miss: %+v", s)
	}

	// Hit: same shape and map replays, bit-identically.
	c2 := newConfig(t, nt, ranks, dev, 1e-8)
	r2, err := cholesky.RunCached(c2, cache)
	if err != nil {
		t.Fatalf("hit run: %v", err)
	}
	if r2.Digest() != r1.Digest() {
		t.Fatalf("replay digest %016x != compile digest %016x", r2.Digest(), r1.Digest())
	}
	sameBits(t, want, factorBits(c2.Matrix, c2.Desc), "cache hit")
	if s := cache.Stats(); s != (plan.Stats{Hits: 1, Misses: 1}) {
		t.Fatalf("after hit: %+v", s)
	}

	// Invalidation: a looser accuracy target re-derives the maps; the cache
	// recompiles.
	c3 := newConfig(t, nt, ranks, dev, 1e-2)
	r3, err := cholesky.RunCached(c3, cache)
	if err != nil {
		t.Fatalf("invalidation run: %v", err)
	}
	if s := cache.Stats(); s != (plan.Stats{Hits: 1, Misses: 1, Invalidations: 1}) {
		t.Fatalf("after invalidation: %+v", s)
	}
	fresh := newConfig(t, nt, ranks, dev, 1e-2)
	fref, err := cholesky.Run(fresh)
	if err != nil {
		t.Fatalf("fresh mutated run: %v", err)
	}
	if r3.Digest() != fref.Digest() {
		t.Fatalf("recompiled digest %016x != fresh %016x", r3.Digest(), fref.Digest())
	}
	// At u_req 1e-2 this matrix is not SPD in its reduced precisions: both
	// runs stop at the same pivot. Bodies run in dataflow order, not in the
	// simulation's, so the partial factors agree only because a failed
	// POTRF keeps exactly its graph descendants from running.
	if !errors.Is(r3.Err, linalg.ErrNotPositiveDefinite) || !strings.HasPrefix(r3.Err.Error(), "POTRF(3): ") ||
		fref.Err == nil || r3.Err.Error() != fref.Err.Error() {
		t.Fatalf("numeric failure: recompiled %v, fresh %v, want both POTRF(3): not positive definite", r3.Err, fref.Err)
	}
	sameBits(t, factorBits(fresh.Matrix, fresh.Desc), factorBits(c3.Matrix, c3.Desc), "recompile")

	// The recompiled plan replaced the stale one: same shape now hits, and
	// the replay fails and stops exactly as the live runs did.
	c4 := newConfig(t, nt, ranks, dev, 1e-2)
	r4, err := cholesky.RunCached(c4, cache)
	if err != nil {
		t.Fatalf("post-recompile hit: %v", err)
	}
	if r4.Err == nil || r4.Err.Error() != fref.Err.Error() {
		t.Fatalf("replayed numeric failure %v, fresh %v", r4.Err, fref.Err)
	}
	sameBits(t, factorBits(fresh.Matrix, fresh.Desc), factorBits(c4.Matrix, c4.Desc), "replay of the failed factorization")
	if s := cache.Stats(); s != (plan.Stats{Hits: 2, Misses: 1, Invalidations: 1}) {
		t.Fatalf("after recompile hit: %+v", s)
	}

	// A nil cache degrades to a live run.
	n1 := newConfig(t, nt, ranks, dev, 1e-8)
	nres, err := cholesky.RunCached(n1, nil)
	if err != nil {
		t.Fatalf("nil-cache run: %v", err)
	}
	if nres.Digest() != r1.Digest() {
		t.Fatalf("nil-cache digest %016x != reference %016x", nres.Digest(), r1.Digest())
	}
}
