package cholesky

import (
	"testing"

	"geompc/internal/comm"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/sched"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// runWithPolicy executes one numeric factorization under the given policy
// and topology, with the invariant auditor on, and returns the factor as a
// dense array plus the run's result.
func runWithPolicy(t *testing.T, nt int, strat Strategy, pol sched.Policy, topo comm.Topology, ranks, devPerRank int) ([]float64, *Result) {
	t.Helper()
	ts := 16
	n := nt * ts
	rng := stats.NewRNG(42, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	p, q := tile.SquarestGrid(ranks)
	d, err := tile.NewDesc(n, ts, p, q)
	if err != nil {
		t.Fatal(err)
	}
	mat := tile.NewMatrix(d, false)
	mat.Fill(func(tl *tile.Tile, r0, c0 int) {
		geo.CovTile(locs, r0, c0, tl.M, tl.N, geo.SqExp{Dimension: 2}, []float64{1, 0.05}, 1e-8, tl.Data, tl.N)
	})
	maps := precmap.New(precmap.FromMatrix(mat, 1e-6, prec.CholeskySet), 1e-6)
	mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
	plat, err := runtime.NewPlatform(hw.SummitNode, ranks, devPerRank)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat,
		Strategy: strat, Audit: true, Sched: pol, Bcast: topo}
	name := "default"
	if pol != nil {
		name = pol.Name()
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("policy %s: %v", name, err)
	}
	if res.Err != nil {
		t.Fatalf("policy %s: numeric failure %v", name, res.Err)
	}
	return mat.ToDense(), res
}

// TestPolicyMatrixBitIdenticalFactor is the cross-policy property test:
// every scheduling policy, under both communication strategies (Auto/STC
// and ForceTTC), must
//
//   - pass the run-invariant auditor (pin balance, per-link interval
//     consistency, energy conservation — Config.Audit fails the run on any
//     violation),
//   - produce the bit-identical numeric factor to the FIFO baseline of the
//     same strategy (policies move work in virtual time; they never change
//     what is computed), and
//   - execute the same number of tasks.
//
// The underlying graphs are structurally validated once per strategy.
func TestPolicyMatrixBitIdenticalFactor(t *testing.T) {
	const nt, ranks, devPerRank = 6, 2, 2
	for _, strat := range []Strategy{Auto, ForceTTC} {
		g := buildTestGraph(t, nt, 1e-4, nil, strat, ranks, devPerRank)
		if err := runtime.Validate(g); err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
	}
	for _, strat := range []Strategy{Auto, ForceTTC} {
		ref, refRes := runWithPolicy(t, nt, strat, sched.FIFO{}, comm.Binomial{}, ranks, devPerRank)
		for _, pol := range sched.Policies() {
			if pol.Name() == "fifo" {
				continue
			}
			got, res := runWithPolicy(t, nt, strat, pol, comm.Binomial{}, ranks, devPerRank)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%v/%s: factor differs from FIFO at element %d: %g vs %g",
						strat, pol.Name(), i, got[i], ref[i])
				}
			}
			if res.Stats.Tasks != refRes.Stats.Tasks {
				t.Errorf("%v/%s: %d tasks, FIFO ran %d", strat, pol.Name(), res.Stats.Tasks, refRes.Stats.Tasks)
			}
			if res.Stats.Energy <= 0 {
				t.Errorf("%v/%s: no energy accounted", strat, pol.Name())
			}
		}
	}
}

// TestBcastTopologiesBitIdenticalFactor runs the multi-rank factorization
// under every broadcast topology: the factor must stay bit-identical (the
// topology shapes arrival times, not values) and the audit must stay clean.
func TestBcastTopologiesBitIdenticalFactor(t *testing.T) {
	const nt, ranks, devPerRank = 6, 3, 1
	ref, _ := runWithPolicy(t, nt, Auto, sched.FIFO{}, comm.Binomial{}, ranks, devPerRank)
	for _, topo := range comm.Topologies() {
		if topo.Name() == "binomial" {
			continue
		}
		got, _ := runWithPolicy(t, nt, Auto, sched.FIFO{}, topo, ranks, devPerRank)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("topology %s: factor differs at element %d", topo.Name(), i)
			}
		}
	}
}

// TestDefaultPolicyDigestUnchanged pins that an explicit FIFO+Binomial
// selection is the same run as the nil defaults, digest for digest.
func TestDefaultPolicyDigestUnchanged(t *testing.T) {
	const nt, ranks, devPerRank = 6, 2, 2
	_, def := runWithPolicy(t, nt, Auto, sched.FIFO{}, comm.Binomial{}, ranks, devPerRank)
	_, nilCfg := runWithPolicy(t, nt, Auto, nil, nil, ranks, devPerRank)
	if def.Digest() != nilCfg.Digest() {
		t.Errorf("explicit FIFO+Binomial digest %016x != default digest %016x", def.Digest(), nilCfg.Digest())
	}
}
