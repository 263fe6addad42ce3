package plan_test

// The tentpole property: a replayed run is indistinguishable from a fresh
// simulation. For every combination of problem size, process grid, device
// count, scheduling policy and broadcast topology, the schedule digest of
// the replay equals the fresh run's digest and the numeric factor is
// bit-identical. Run under -race in CI (plan-cache job):
// the body executor (runtime.RunBodies) is the only concurrency in the
// path, and this grid exercises it across every graph shape.

import (
	"fmt"
	"testing"

	"geompc/internal/cholesky"
)

type gridCase struct {
	nt, ranks, devPerRank int
	policy, topo          string
}

func replayGrid() []gridCase {
	var cases []gridCase
	// Platform sweep at the default policy and topology.
	for _, pl := range [][3]int{{4, 1, 1}, {4, 1, 3}, {4, 4, 2}, {8, 4, 2}} {
		cases = append(cases, gridCase{nt: pl[0], ranks: pl[1], devPerRank: pl[2]})
	}
	// Policy × topology sweep at a fixed multi-rank platform.
	for _, pol := range []string{"", "locality", "cp"} {
		for _, topo := range []string{"", "flat", "chain"} {
			if pol == "" && topo == "" {
				continue // covered above
			}
			cases = append(cases, gridCase{nt: 6, ranks: 4, devPerRank: 2, policy: pol, topo: topo})
		}
	}
	return cases
}

// name labels the case ptg/nt<NT>-<ranks>x<GPUs>-<policy>-<topology>.
func (c gridCase) name() string {
	pol, topo := c.policy, c.topo
	if pol == "" {
		pol = "fifo"
	}
	if topo == "" {
		topo = "binomial"
	}
	return fmt.Sprintf("ptg/nt%d-%dx%d-%s-%s", c.nt, c.ranks, c.devPerRank, pol, topo)
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
			fresh := newConfig(t, gc.nt, gc.ranks, gc.devPerRank, ureq, gc.policy, gc.topo)
			freshRes, err := cholesky.Run(fresh)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			if freshRes.Err != nil {
				t.Fatalf("fresh numeric failure: %v", freshRes.Err)
			}
			wantBits := factorBits(fresh.Matrix, fresh.Desc)

			// Compile: itself a full run, so digest and factor must match.
			ccfg := newConfig(t, gc.nt, gc.ranks, gc.devPerRank, ureq, gc.policy, gc.topo)
			p, err := cholesky.Compile(ccfg)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if p.Stats.ScheduleDigest != freshRes.Digest() {
				t.Fatalf("compile digest %016x != fresh %016x",
					p.Stats.ScheduleDigest, freshRes.Digest())
			}
			sameBits(t, wantBits, factorBits(ccfg.Matrix, ccfg.Desc), "compile")

			// Replay: only the numeric bodies re-run; digest is frozen and
			// the factor must still come out bit-identical.
			rcfg := newConfig(t, gc.nt, gc.ranks, gc.devPerRank, ureq, gc.policy, gc.topo)
			repRes, err := cholesky.Replay(rcfg, p)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if repRes.Err != nil {
				t.Fatalf("replay numeric failure: %v", repRes.Err)
			}
			if repRes.Digest() != freshRes.Digest() {
				t.Fatalf("replay digest %016x != fresh %016x",
					repRes.Digest(), freshRes.Digest())
			}
			if repRes.Stats.Makespan != freshRes.Stats.Makespan ||
				repRes.Stats.Energy != freshRes.Stats.Energy ||
				repRes.Stats.BytesNet != freshRes.Stats.BytesNet ||
				repRes.Stats.Tasks != freshRes.Stats.Tasks {
				t.Fatalf("replay stats diverge from fresh:\n%+v\n%+v",
					repRes.Stats, freshRes.Stats)
			}
			sameBits(t, wantBits, factorBits(rcfg.Matrix, rcfg.Desc), "replay")

			// A second replay of the same plan stays bit-identical —
			// replays do not consume the plan.
			r2 := newConfig(t, gc.nt, gc.ranks, gc.devPerRank, ureq, gc.policy, gc.topo)
			if _, err := cholesky.Replay(r2, p); err != nil {
				t.Fatalf("second replay: %v", err)
			}
			sameBits(t, wantBits, factorBits(r2.Matrix, r2.Desc), "second replay")
		})
	}
}

// TestReplayRejectsMismatch: replaying under a different shape or precision
// signature is refused, not silently wrong.
func TestReplayRejectsMismatch(t *testing.T) {
	base := newConfig(t, 4, 2, 2, 1e-8, "", "")
	p, err := cholesky.Compile(base)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	// Different shape (policy change).
	other := newConfig(t, 4, 2, 2, 1e-8, "locality", "")
	if _, err := cholesky.Replay(other, p); err == nil {
		t.Fatal("replay accepted a plan compiled under a different policy")
	}

	// Different precision map (looser accuracy → different maps).
	loose := newConfig(t, 4, 2, 2, 1e-2, "", "")
	if _, err := cholesky.Replay(loose, p); err == nil {
		t.Fatal("replay accepted a plan compiled under a different precision map")
	}
}

// TestPlanBackedResult: results served from a plan still answer the Result
// API sensibly — frozen schedule, frozen metrics, no interval traces.
func TestPlanBackedResult(t *testing.T) {
	cfg := newConfig(t, 4, 2, 2, 1e-8, "", "")
	p, err := cholesky.Compile(cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rcfg := newConfig(t, 4, 2, 2, 1e-8, "", "")
	res, err := cholesky.Replay(rcfg, p)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := len(res.Schedule()); got != p.NumTasks {
		t.Fatalf("plan-backed schedule has %d entries, want %d", got, p.NumTasks)
	}
	if res.Metrics() == nil {
		t.Fatal("plan-backed result has nil metrics")
	}
	if busy, xfer := res.DeviceTrace(0); busy != nil || xfer != nil {
		t.Fatal("plan-backed result should carry no interval traces")
	}
	if err := res.WriteChromeTrace(nil); err == nil {
		t.Fatal("plan-backed result should refuse chrome traces")
	}
}
