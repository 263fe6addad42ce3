package bench

// The SolverAblation pair times the two registered solve paths on the
// same phantom grid ({Auto, TTC} × two sizes on a 2-rank Summit node).
// Honest read of the committed numbers: on the *simulated* machine the
// cg rows win data motion and energy at these tolerances (~25× fewer
// network bytes, ~2× less energy — see geompc ablation -solvers), but the
// *host* cost per point is ~5× the direct series' (ns_op in
// BENCH_kernels.json): 17 modeled iterations emit thousands of tiny
// SpMV/reduction tasks against the factorization's few large ones, and
// each chunk pays a plan compile. And the simulated advantage itself
// inverts once conditioning pushes the iteration count toward O(n) —
// the direct series' cost is condition-independent. The digest
// cross-check pins each series to one bit-exact schedule across b.N.

import (
	"testing"

	"geompc/internal/hw"
)

func solverAblationRun(b *testing.B, backend string) {
	sizes := []int{16384, 32768}
	var digests []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := solverAblation(hw.SummitNode, 2, 2, []string{backend}, sizes, 2048, SchedOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if digests == nil {
			digests = make([]uint64, len(rows))
			for j, r := range rows {
				digests[j] = r.Digest
			}
		} else {
			for j, r := range rows {
				if r.Digest != digests[j] {
					b.Fatalf("row %d digest %#016x differs from first run's %#016x", j, r.Digest, digests[j])
				}
			}
		}
	}
}

func BenchmarkSolverAblationDirect(b *testing.B) { solverAblationRun(b, "direct") }

func BenchmarkSolverAblationCG(b *testing.B) { solverAblationRun(b, "cg") }

func TestSolverAblationDeterministic(t *testing.T) {
	sizes := []int{16384}
	serial, err := SolverAblation(hw.SummitNode, 2, 2, sizes, 2048, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 4 { // 2 backends × 2 strategies × 1 size
		t.Fatalf("grid has %d rows, want 4", len(serial))
	}
	par, err := SolverAblation(hw.SummitNode, 2, 2, sizes, 2048,
		SchedOpts{SweepOpts: SweepOpts{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("row counts differ: %d vs %d", len(par), len(serial))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("row %d differs between serial and parallel sweep:\n  %+v\n  %+v", i, serial[i], par[i])
		}
	}
	var sawDirect, sawCG bool
	for _, r := range serial {
		switch r.Backend {
		case "direct":
			sawDirect = true
			if r.Iterations != 0 {
				t.Errorf("direct row reports %d iterations", r.Iterations)
			}
		case "cg":
			sawCG = true
			if r.Iterations <= 0 {
				t.Errorf("cg row reports %d iterations", r.Iterations)
			}
		}
		if r.Time <= 0 || r.Energy <= 0 || r.Digest == 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if !sawDirect || !sawCG {
		t.Fatalf("grid missing a backend: %+v", serial)
	}
}
