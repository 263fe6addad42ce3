package plan_test

// The replay property: a replayed run is indistinguishable from a fresh
// simulation. For every combination of problem size, process grid and
// device count, the schedule digest of the replay equals the fresh run's
// digest and the numeric factor is bit-identical. Run under -race in CI (test job): the body executor
// (runtime.RunBodies) is the only concurrency in the path, and this grid
// exercises it across every graph shape.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/plan"
)

type gridCase struct {
	nt, ranks, devPerRank int
}

func replayGrid() []gridCase {
	return []gridCase{{4, 1, 1}, {4, 1, 3}, {4, 4, 2}, {8, 4, 2}}
}

// name labels the case ptg/nt<NT>-<ranks>x<GPUs>-fifo-binomial; the suffix
// names the engine's one schedule (priority-ordered ready queues,
// binomial-tree broadcasts).
func (c gridCase) name() string {
	return fmt.Sprintf("ptg/nt%d-%dx%d-fifo-binomial", c.nt, c.ranks, c.devPerRank)
}

// TestReplayMatchesFresh is the golden-replay property across the full
// schedule-shape grid.
func TestReplayMatchesFresh(t *testing.T) {
	for _, gc := range replayGrid() {
		gc := gc
		t.Run(gc.name(), func(t *testing.T) {
			t.Parallel()
			const ureq = 1e-8

			// Fresh simulation: the reference digest and factor.
			fresh := newConfig(t, gc.nt, gc.ranks, gc.devPerRank, ureq)
			freshRes, err := cholesky.Run(fresh)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			if freshRes.Err != nil {
				t.Fatalf("fresh numeric failure: %v", freshRes.Err)
			}
			wantBits := factorBits(fresh.Matrix, fresh.Desc)

			// The first cached run compiles — itself a full run, so digest and
			// factor must match; the next two replay (only the numeric bodies
			// re-run, the digest is frozen) and must still come out
			// bit-identical: replays do not consume the plan.
			cache := plan.NewCache(nil)
			for _, step := range []string{"compile", "replay", "second replay"} {
				cfg := newConfig(t, gc.nt, gc.ranks, gc.devPerRank, ureq)
				res, err := cholesky.RunCached(cfg, cache)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if res.Err != nil {
					t.Fatalf("%s numeric failure: %v", step, res.Err)
				}
				if res.Digest() != freshRes.Digest() {
					t.Fatalf("%s digest %016x != fresh %016x", step, res.Digest(), freshRes.Digest())
				}
				if res.Stats.Makespan != freshRes.Stats.Makespan ||
					res.Stats.Energy != freshRes.Stats.Energy ||
					res.Stats.BytesNet != freshRes.Stats.BytesNet ||
					res.Stats.Tasks != freshRes.Stats.Tasks {
					t.Fatalf("%s stats diverge from fresh:\n%+v\n%+v", step, res.Stats, freshRes.Stats)
				}
				sameBits(t, wantBits, factorBits(cfg.Matrix, cfg.Desc), step)
			}
			if s := cache.Stats(); s != (plan.Stats{Hits: 2, Misses: 1}) {
				t.Fatalf("cache counters %+v, want one miss and two hits", s)
			}
		})
	}
}

// TestPlanBackedResult: a traced result served from a plan is the live
// run's record — Stats, timeline included, deeply equal — and exports the
// same Chrome trace.
func TestPlanBackedResult(t *testing.T) {
	live, err := cholesky.Run(newConfig(t, 4, 2, 2, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	cache := plan.NewCache(nil)
	var res *cholesky.Result
	for i := 0; i < 2; i++ { // the second run replays
		if res, err = cholesky.RunCached(newConfig(t, 4, 2, 2, 1e-8), cache); err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Hits != 1 {
		t.Fatalf("second run did not replay: %+v", s)
	}
	if res.Stats.Trace == nil || len(res.Stats.Trace.Devices) != 4 {
		t.Fatal("plan-backed result carries no device timelines")
	}
	if !reflect.DeepEqual(res.Stats, live.Stats) {
		t.Fatalf("plan-backed stats diverge from the live run's:\n%+v\n%+v", res.Stats, live.Stats)
	}
	if got := len(res.Stats.Trace.Tasks); got != res.Stats.Tasks {
		t.Fatalf("plan-backed schedule has %d entries, want %d", got, res.Stats.Tasks)
	}
	var got, want bytes.Buffer
	if err := res.WriteChromeTrace(&got); err != nil {
		t.Fatalf("plan-backed chrome trace: %v", err)
	}
	if err := live.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("plan-backed chrome trace differs from the live run's")
	}
}

// TestReplayRejectsMismatch: a cached plan is never replayed under a
// different shape or precision signature. A strategy change misses, a
// looser accuracy (different maps) invalidates, and both come out as fresh
// runs.
func TestReplayRejectsMismatch(t *testing.T) {
	cache := plan.NewCache(nil)
	if _, err := cholesky.RunCached(newConfig(t, 4, 2, 2, 1e-8), cache); err != nil {
		t.Fatalf("prime: %v", err)
	}
	for _, c := range []struct {
		label string
		ureq  float64
		strat cholesky.Strategy
		want  plan.Stats
	}{
		{"strategy", 1e-8, cholesky.ForceTTC, plan.Stats{Misses: 2}},
		{"precision map", 1e-2, cholesky.Auto, plan.Stats{Misses: 2, Invalidations: 1}},
	} {
		cfg := newConfig(t, 4, 2, 2, c.ureq)
		cfg.Strategy = c.strat
		got, err := cholesky.RunCached(cfg, cache)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if s := cache.Stats(); s != c.want {
			t.Fatalf("%s change: counters %+v, want %+v", c.label, s, c.want)
		}
		fresh := newConfig(t, 4, 2, 2, c.ureq)
		fresh.Strategy = c.strat
		ref, err := cholesky.Run(fresh)
		if err != nil {
			t.Fatalf("%s fresh: %v", c.label, err)
		}
		if got.Digest() != ref.Digest() {
			t.Fatalf("%s change: cached digest %016x != fresh %016x", c.label, got.Digest(), ref.Digest())
		}
	}
}
