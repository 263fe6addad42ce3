package bench

import (
	"testing"

	"geompc/internal/hw"
)

func TestChaosAblationShape(t *testing.T) {
	rows, err := ChaosAblationOpts(hw.SummitNode, 2, 16384, 2048, "", SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(ConvConfigs()) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(ConvConfigs()))
	}
	for i := 0; i < len(rows); i += 2 {
		base, chaos := rows[i], rows[i+1]
		if base.Scenario != "fault-free" || chaos.Scenario != "chaos" || base.Config != chaos.Config {
			t.Fatalf("row pair %d mislabeled: %+v / %+v", i, base, chaos)
		}
		if chaos.DeviceFailures != 1 {
			t.Errorf("%s: DeviceFailures = %d, want 1", chaos.Config, chaos.DeviceFailures)
		}
		if chaos.Time <= base.Time {
			t.Errorf("%s: chaos time %g not above fault-free %g", chaos.Config, chaos.Time, base.Time)
		}
		if chaos.TimeOverheadPct <= 0 {
			t.Errorf("%s: TimeOverheadPct = %g, want > 0", chaos.Config, chaos.TimeOverheadPct)
		}
	}
	if _, err := ChaosAblationOpts(hw.SummitNode, 1, 16384, 2048, "", SweepOpts{}); err == nil {
		t.Error("single-GPU chaos ablation must be rejected (no failover target)")
	}
	if _, err := ChaosAblationOpts(hw.SummitNode, 2, 16384, 2048, "kill:dev=9,at=0.5", SweepOpts{}); err == nil {
		t.Error("out-of-range device in spec must be rejected")
	}
}

// TestConvSweepFaultsNoOp pins the golden no-op at the bench layer: with
// an empty fault spec (the one entry point's fault-free spelling) two
// sweeps must agree row for row, digests included.
func TestConvSweepFaultsNoOp(t *testing.T) {
	a, err := ConvSweepOpts(hw.SummitNode, 1, 1, []int{16384}, 2048, "", SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConvSweepOpts(hw.SummitNode, 1, 1, []int{16384}, 2048, "", SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScalingFaultsSlowdown(t *testing.T) {
	base, err := StrongScalingOpts([]int{1}, 16384, 2048, "", SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := StrongScalingOpts([]int{1}, 16384, 2048, "slow:dev=0,from=0,to=1,x=8", SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if slow[0].Time <= base[0].Time {
		t.Errorf("slow-window run %g not above fault-free %g", slow[0].Time, base[0].Time)
	}
}
