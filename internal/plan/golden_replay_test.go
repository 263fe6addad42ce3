package plan_test

// Golden-replay harness: the schedule digest below is pinned. A compiled
// plan replayed today, next month, or after a refactor must reproduce this
// exact digest for the canonical scenario (NT=6, 4 ranks × 2 devices,
// u_req=1e-8) under the engine's one schedule — priority-ordered ready
// queues ("fifo") and binomial-tree broadcasts, the subtest's name. A
// mismatch means the plan/replay split changed observable schedule
// behavior — bump the constant only with a digest-change justification in
// the commit message (see internal/cholesky's golden digest test for the
// precedent).

import (
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/plan"
)

const goldenReplayDigest = 0xcdd7a71e0c1d9e46

func TestGoldenReplayDigests(t *testing.T) {
	t.Run("fifo-binomial", func(t *testing.T) {
		cache := plan.NewCache(nil)
		for _, step := range []string{"compile", "replay"} {
			res, err := cholesky.RunCached(newConfig(t, 6, 4, 2, 1e-8), cache)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if res.Digest() != goldenReplayDigest {
				t.Fatalf("%s digest 0x%016x, pinned 0x%016x", step, res.Digest(), uint64(goldenReplayDigest))
			}
		}
		if s := cache.Stats(); s != (plan.Stats{Hits: 1, Misses: 1}) {
			t.Fatalf("cache counters %+v, want one miss and one hit", s)
		}
	})
}
