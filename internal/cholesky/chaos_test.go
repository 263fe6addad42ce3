package cholesky

import (
	"math"
	gort "runtime"
	"testing"

	"geompc/internal/runtime"
)

// toBits flattens a factor to raw float64 bit patterns for exact
// comparison: recovery must reproduce the fault-free factor bit for bit,
// not merely to a tolerance.
func toBits(dense []float64) []uint64 {
	bits := make([]uint64, len(dense))
	for i, v := range dense {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

func sameBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosGoldenNoOp is the golden no-op satellite: a wired-in but silent
// injector must produce schedule digests bit-identical to no injector at
// all, across GOMAXPROCS settings and both the PTG and DTD front-ends.
func TestChaosGoldenNoOp(t *testing.T) {
	base, _ := buildNumericConfig(t, 6, 1, 2)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		gort.GOMAXPROCS(procs)
		for name, runFn := range map[string]func(Config) (*Result, error){
			"PTG": Run, "DTD": RunDTD,
		} {
			cfg, _ := buildNumericConfig(t, 6, 1, 2)
			cfg.Faults = runtime.FaultPlan{} // wired in, silent
			res, err := runFn(cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, name, err)
			}
			if res.Digest() != ref.Digest() {
				t.Errorf("GOMAXPROCS=%d %s: silent injector digest %#x != fault-free %#x",
					procs, name, res.Digest(), ref.Digest())
			}
		}
	}
}

// TestChaosRecoveryBitIdentical is the acceptance scenario: a single device
// failure injected mid-run on a 3-GPU Fig 8-style mixed-precision numeric
// factorization. The run must complete on the survivors under a clean
// audit, the recovered factor must be bit-identical to the fault-free
// factor, and the same seed (plan) must reproduce the same digest.
func TestChaosRecoveryBitIdentical(t *testing.T) {
	const nt = 7
	clean, chaosA := buildNumericConfig(t, nt, 1, 3)
	chaosB, _ := buildNumericConfig(t, nt, 1, 3)

	ref, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	want := toBits(clean.Matrix.ToDense())

	killAt := ref.Stats.Makespan * 0.4
	plan := runtime.FaultPlan{{Kind: runtime.FaultKill, Device: 1, At: killAt}}

	runChaos := func(cfg Config) *Result {
		t.Helper()
		cfg.Faults = plan
		cfg.Audit = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("chaos run failed: %v", err)
		}
		if res.Err != nil {
			t.Fatalf("chaos run numeric failure: %v", res.Err)
		}
		return res
	}

	a := runChaos(chaosA)
	if a.Stats.DeviceFailures != 1 {
		t.Errorf("DeviceFailures = %d, want 1", a.Stats.DeviceFailures)
	}
	if a.Stats.Tasks != ref.Stats.Tasks {
		t.Errorf("chaos run completed %d tasks, fault-free %d", a.Stats.Tasks, ref.Stats.Tasks)
	}
	if got := toBits(chaosA.Matrix.ToDense()); !sameBits(got, want) {
		t.Error("recovered factor is not bit-identical to the fault-free factor")
	}
	if a.Stats.Makespan <= ref.Stats.Makespan {
		t.Errorf("chaos makespan %g not above fault-free %g — recovery must cost time",
			a.Stats.Makespan, ref.Stats.Makespan)
	}
	if a.Digest() == ref.Digest() {
		t.Error("chaos digest equals fault-free digest; the failure left no schedule trace")
	}

	// Same plan, fresh matrix: bit-identical digest and factor (chaos runs
	// are as reproducible as fault-free ones).
	b := runChaos(chaosB)
	if b.Digest() != a.Digest() {
		t.Errorf("same fault plan, different digests: %#x vs %#x", b.Digest(), a.Digest())
	}
	if got := toBits(chaosB.Matrix.ToDense()); !sameBits(got, want) {
		t.Error("second chaos run factor differs from fault-free factor")
	}
}

// TestChaosRecoveryDTD drives the same mid-run device failure through the
// DTD front-end: recovery must not depend on the algebraic PTG (or its
// LineageGraph hook — the engine's own lineage tracking suffices).
func TestChaosRecoveryDTD(t *testing.T) {
	clean, chaos := buildNumericConfig(t, 7, 1, 2)
	ref, err := RunDTD(clean)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	want := toBits(clean.Matrix.ToDense())

	chaos.Faults = runtime.FaultPlan{{Kind: runtime.FaultKill, Device: 1, At: ref.Stats.Makespan * 0.5}}
	chaos.Audit = true
	res, err := RunDTD(chaos)
	if err != nil {
		t.Fatalf("DTD chaos run failed: %v", err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.DeviceFailures != 1 || res.Stats.Tasks != ref.Stats.Tasks {
		t.Errorf("failures=%d tasks=%d, want 1 and %d",
			res.Stats.DeviceFailures, res.Stats.Tasks, ref.Stats.Tasks)
	}
	if got := toBits(chaos.Matrix.ToDense()); !sameBits(got, want) {
		t.Error("DTD recovered factor is not bit-identical to the fault-free factor")
	}
}

// TestChaosFlakyAndSlow exercises the two non-fatal fault classes end to
// end on a numeric run: the factor must stay bit-identical (faults perturb
// virtual time only) while the makespan grows.
func TestChaosFlakyAndSlow(t *testing.T) {
	clean, chaos := buildNumericConfig(t, 6, 1, 2)
	ref, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	want := toBits(clean.Matrix.ToDense())

	mk := ref.Stats.Makespan
	chaos.Faults = runtime.FaultPlan{
		{Kind: runtime.FaultTransient, Device: 0, At: mk * 0.3, Backoff: mk * 0.01},
		{Kind: runtime.FaultSlow, Device: 1, From: 0, To: mk, Factor: 4},
	}
	chaos.Audit = true
	res, err := Run(chaos)
	if err != nil {
		t.Fatalf("flaky/slow run failed: %v", err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.TransientFaults != 1 {
		t.Errorf("TransientFaults = %d, want 1", res.Stats.TransientFaults)
	}
	if res.Stats.Makespan <= mk {
		t.Errorf("perturbed makespan %g not above fault-free %g", res.Stats.Makespan, mk)
	}
	if got := toBits(chaos.Matrix.ToDense()); !sameBits(got, want) {
		t.Error("factor changed under flaky/slow faults (they must only cost virtual time)")
	}
}

// TestChaosMultiRank drives a mid-run device kill and a transient fault on a
// multi-rank numeric factorization (the other chaos scenarios are
// single-rank): the run must recover to the bit-identical fault-free factor
// under a clean audit.
func TestChaosMultiRank(t *testing.T) {
	const nt, ranks, gpr = 7, 2, 2
	clean, _ := buildNumericConfig(t, nt, ranks, gpr)
	ref, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	want := toBits(clean.Matrix.ToDense())
	mk := ref.Stats.Makespan

	for _, fault := range []struct {
		name string
		plan runtime.FaultPlan
	}{
		{"kill", runtime.FaultPlan{{Kind: runtime.FaultKill, Device: 1, At: mk * 0.4}}},
		{"flaky", runtime.FaultPlan{{Kind: runtime.FaultTransient, Device: 2, At: mk * 0.3, Backoff: mk * 0.01}}},
	} {
		fault := fault
		t.Run(fault.name, func(t *testing.T) {
			cfg, _ := buildNumericConfig(t, nt, ranks, gpr)
			cfg.Faults = fault.plan
			cfg.Audit = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("numeric failure: %v", res.Err)
			}
			if got := toBits(cfg.Matrix.ToDense()); !sameBits(got, want) {
				t.Error("recovered factor differs from the fault-free factor")
			}
			if res.Stats.Tasks != ref.Stats.Tasks {
				t.Errorf("completed %d tasks, fault-free %d", res.Stats.Tasks, ref.Stats.Tasks)
			}
			if fault.name == "kill" && res.Stats.DeviceFailures != 1 {
				t.Errorf("DeviceFailures = %d, want 1", res.Stats.DeviceFailures)
			}
		})
	}
}

// TestWritersLineageHook pins the cholesky graph's LineageGraph
// implementation: the declared writers of a tile, in execution order.
func TestWritersLineageHook(t *testing.T) {
	g := buildTestGraph(t, 5, 1e-6, nil, Auto, 1, 1)
	var buf []int
	// Diagonal tile (3,3): SYRK(3,0..2) then POTRF(3).
	buf = g.Writers(g.dataID(3, 3), buf[:0])
	want := []int{g.syrk(3, 0), g.syrk(3, 1), g.syrk(3, 2), g.potrf(3)}
	if len(buf) != len(want) {
		t.Fatalf("diagonal writers %v, want %v", buf, want)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("diagonal writers %v, want %v", buf, want)
		}
	}
	// Off-diagonal tile (4,2): GEMM(4,2,0..1) then TRSM(4,2).
	buf = g.Writers(g.dataID(4, 2), buf[:0])
	want = []int{g.gemm(4, 2, 0), g.gemm(4, 2, 1), g.trsm(4, 2)}
	for i := range want {
		if i >= len(buf) || buf[i] != want[i] {
			t.Fatalf("off-diagonal writers %v, want %v", buf, want)
		}
	}
	// Upper-triangle and out-of-range ids yield nothing.
	if got := g.Writers(g.dataID(1, 3), nil); len(got) != 0 {
		t.Errorf("upper tile writers = %v, want empty", got)
	}
	if got := g.Writers(runtime.DataID(99999), nil); len(got) != 0 {
		t.Errorf("out-of-range writers = %v, want empty", got)
	}
}
