package plan_test

// Golden-replay harness: the schedule digests below are pinned. A compiled
// plan replayed today, next month, or after a refactor must reproduce these
// exact digests for the canonical scenario (NT=6, 4 ranks × 2 devices,
// u_req=1e-8) across every scheduling policy × broadcast
// topology pair. A mismatch means the plan/replay split changed observable
// schedule behavior — bump these constants only with a digest-change
// justification in the commit message (see internal/cholesky's golden
// digest test for the precedent).

import (
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/plan"
)

var goldenReplayDigests = map[[2]string]uint64{
	{"fifo", "binomial"}:     0xcdd7a71e0c1d9e46,
	{"fifo", "flat"}:         0xb388dec054601b2f,
	{"fifo", "chain"}:        0x9c3e7f6bad1d19d4,
	{"locality", "binomial"}: 0x0705cc1a2a7af200,
	{"locality", "flat"}:     0x63816bf1316e588f,
	// At this rank count the chain and flat topologies serialize the same
	// link bookings under locality placement — identical digests, pinned
	// independently so a divergence in either still trips the harness.
	{"locality", "chain"}: 0x63816bf1316e588f,
	{"cp", "binomial"}:    0x8aef017cf63c2ff9,
	{"cp", "flat"}:        0xdb62d0f38fec0e47,
	{"cp", "chain"}:       0x4bd416df0a82bf80,
}

func TestGoldenReplayDigests(t *testing.T) {
	for key, want := range goldenReplayDigests {
		key, want := key, want
		t.Run(key[0]+"-"+key[1], func(t *testing.T) {
			t.Parallel()
			cache := plan.NewCache(nil)
			for _, step := range []string{"compile", "replay"} {
				res, err := cholesky.RunCached(newConfig(t, 6, 4, 2, 1e-8, key[0], key[1]), cache)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if res.Digest() != want {
					t.Fatalf("%s digest 0x%016x, pinned 0x%016x", step, res.Digest(), want)
				}
			}
			if s := cache.Stats(); s != (plan.Stats{Hits: 1, Misses: 1}) {
				t.Fatalf("cache counters %+v, want one miss and one hit", s)
			}
		})
	}
}
