package bench

import (
	"math"
	"testing"

	"geompc/internal/runtime"
)

// Fig 10's power trace and Fig 9's occupancy trace, as EnergyRunOne bins
// them.
var (
	watts = func(iv runtime.Interval) float64 { return iv.Power }
	one   = func(runtime.Interval) float64 { return 1 }
)

func TestBinPowerConservesEnergy(t *testing.T) {
	// Integrating the binned power over the makespan must reproduce the
	// intervals' energy plus the idle floor.
	busy := []runtime.Interval{
		{Start: 0, End: 1, Power: 100},
		{Start: 2, End: 4, Power: 50},
	}
	xfer := []runtime.Interval{{Start: 0.5, End: 1.5, Power: 20}}
	const idle, makespan = 40.0, 5.0
	for _, bins := range []int{5, 50, 333} {
		pts := binTrace([][]runtime.Interval{busy, xfer}, watts, idle, math.Inf(1), makespan, bins)
		if len(pts) != bins {
			t.Fatalf("got %d bins", len(pts))
		}
		dt := makespan / float64(bins)
		var energy float64
		for _, p := range pts {
			energy += p.V * dt
		}
		want := idle*makespan + 100*1 + 50*2 + 20*1
		if math.Abs(energy-want) > 1e-9*want {
			t.Errorf("bins=%d: integrated %g J, want %g", bins, energy, want)
		}
	}
}

func TestBinPowerEmptyInputs(t *testing.T) {
	if pts := binTrace(nil, watts, 50, math.Inf(1), 0, 10); pts != nil {
		t.Error("zero makespan should yield nil")
	}
	if pts := binTrace(nil, watts, 50, math.Inf(1), 1, 0); pts != nil {
		t.Error("zero bins should yield nil")
	}
	pts := binTrace(nil, watts, 50, math.Inf(1), 2, 4)
	for _, p := range pts {
		if p.V != 50 {
			t.Errorf("idle-only trace shows %g W, want 50", p.V)
		}
	}
}

func TestBinOccupancyConservesBusyTime(t *testing.T) {
	busy := []runtime.Interval{
		{Start: 0.25, End: 1.25},
		{Start: 3, End: 3.5},
	}
	const makespan = 4.0
	pts := binTrace([][]runtime.Interval{busy}, one, 0, 1, makespan, 16)
	dt := makespan / 16
	var total float64
	for _, p := range pts {
		if p.V < 0 || p.V > 1 {
			t.Fatalf("occupancy %g outside [0,1]", p.V)
		}
		total += p.V * dt
	}
	if math.Abs(total-1.5) > 1e-9 {
		t.Errorf("integrated busy time %g, want 1.5", total)
	}
}

func TestBinOccupancyIntervalPastMakespan(t *testing.T) {
	// Intervals extending past the trace window must be clipped, not panic.
	busy := []runtime.Interval{{Start: 0.5, End: 99}}
	pts := binTrace([][]runtime.Interval{busy}, one, 0, 1, 1.0, 4)
	if len(pts) != 4 {
		t.Fatal("bin count")
	}
	if pts[3].V != 1 {
		t.Errorf("last bin %g, want fully busy", pts[3].V)
	}
	if pts[0].V != 0 {
		t.Errorf("first bin %g, want idle", pts[0].V)
	}
}
