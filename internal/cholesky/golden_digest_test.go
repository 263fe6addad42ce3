package cholesky

import (
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// goldenDigests pins the FNV-1a schedule digests of five deterministic
// phantom scenarios under the engine's one schedule (priority-ordered ready
// queues, binomial-tree broadcasts; the multi-rank 4x1 and 2x2 scenarios
// pin the broadcast arithmetic). These digests were recorded from the
// engine as of the observability/perf/chaos passes; any change to
// scheduling, link timing, or broadcast arithmetic shows up here as a
// mismatch. CI runs this test in a dedicated golden-digest guard job.
var goldenDigests = map[string]uint64{
	"ptg-auto-1x3": 0x1dbdf1d2da7923cc,
	"ptg-ttc-1x3":  0x70a8ca09d2688edc,
	"ptg-auto-4x1": 0x49f6ecab7fde1e3e,
	"ptg-auto-1x2": 0xa5daf351112181b0,
	"ptg-fp64-2x2": 0x01a1b67b96361560,
}

func goldenScenario(t *testing.T, name string) Config {
	t.Helper()
	build := func(n, ts, ranks, gpr int, off prec.Precision, strat Strategy) Config {
		d, err := tile.NewDesc(n, ts, 1, ranks)
		if err != nil {
			t.Fatal(err)
		}
		plat, err := runtime.NewPlatform(hw.SummitNode, ranks, gpr)
		if err != nil {
			t.Fatal(err)
		}
		maps := precmap.New(precmap.Uniform(d.NT, off), 1e-4)
		return Config{Desc: d, Maps: maps, Platform: plat, Strategy: strat}
	}
	switch name {
	case "ptg-auto-1x3":
		return build(16384, 2048, 1, 3, prec.FP16x32, Auto)
	case "ptg-ttc-1x3":
		return build(16384, 2048, 1, 3, prec.FP16x32, ForceTTC)
	case "ptg-auto-4x1":
		return build(16384, 2048, 4, 1, prec.FP16x32, Auto)
	case "ptg-auto-1x2":
		return build(12288, 2048, 1, 2, prec.FP16x32, Auto)
	case "ptg-fp64-2x2":
		return build(16384, 2048, 2, 2, prec.FP64, Auto)
	}
	t.Fatalf("unknown scenario %q", name)
	return Config{}
}

// TestGoldenScheduleDigests is the golden-digest guard: every pinned
// scenario must reproduce its recorded schedule digest bit-for-bit.
func TestGoldenScheduleDigests(t *testing.T) {
	for name, want := range goldenDigests {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			res, err := Run(goldenScenario(t, name))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("digest[%s] = %#016x (bytesH2D=%d tasks=%d)", name, res.Digest(), res.Stats.BytesH2D, res.Stats.Tasks)
			if res.Digest() != want {
				t.Errorf("schedule digest %#016x, want pinned %#016x", res.Digest(), want)
			}
		})
	}
}
