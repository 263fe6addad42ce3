package bench

import (
	"testing"

	"geompc/internal/hw"
)

// TestLocalityReducesH2DOnFullNode is the scheduler ablation's acceptance
// property: on the Fig 11 multi-GPU workload (full Summit node, FP64/FP16_32
// Auto), the Locality policy must stage strictly fewer H2D bytes than FIFO —
// following the data is the whole point of the policy — while every policy
// reports a positive makespan and energy.
func TestLocalityReducesH2DOnFullNode(t *testing.T) {
	rows, err := SchedAblationOpts(hw.SummitNode, 1, 0, []int{16384}, 2048, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]SchedRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
		if r.Time <= 0 || r.Energy <= 0 {
			t.Errorf("%s: non-positive time %g or energy %g", r.Policy, r.Time, r.Energy)
		}
	}
	fifo, ok1 := byPolicy["fifo"]
	loc, ok2 := byPolicy["locality"]
	if !ok1 || !ok2 {
		t.Fatalf("ablation missing fifo/locality rows: %v", rows)
	}
	if loc.BytesH2D >= fifo.BytesH2D {
		t.Errorf("locality staged %d H2D bytes, FIFO %d — want strictly fewer", loc.BytesH2D, fifo.BytesH2D)
	}
}

// TestBcastAblationShapes sanity-checks the topology sweep: the topology
// shapes arrival times, never traffic, so wire bytes must be identical
// across topologies (and each run must report a positive makespan).
// Makespans are allowed to move in either direction — with few receivers a
// chain's first hop beats the binomial tree's uniform log-depth arrival.
func TestBcastAblationShapes(t *testing.T) {
	rows, err := BcastAblationOpts(hw.SummitNode, 4, []int{8192}, 1024, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	byTopo := map[string]BcastRow{}
	for _, r := range rows {
		byTopo[r.Topology] = r
		if r.Time <= 0 {
			t.Errorf("%s: non-positive makespan %g", r.Topology, r.Time)
		}
	}
	bin, ok := byTopo["binomial"]
	if !ok {
		t.Fatal("missing binomial row")
	}
	if bin.BytesNet == 0 {
		t.Fatal("multi-rank run moved no network bytes; the sweep is not exercising broadcasts")
	}
	for _, name := range []string{"flat", "chain"} {
		r, ok := byTopo[name]
		if !ok {
			t.Fatalf("missing %s row", name)
		}
		if r.BytesNet != bin.BytesNet {
			t.Errorf("%s moved %d net bytes, binomial %d — topology must not change traffic", name, r.BytesNet, bin.BytesNet)
		}
	}
}
