package solver_test

import (
	"strings"
	"testing"

	"geompc/internal/obs"
	"geompc/internal/plan"
	"geompc/internal/runtime"
	"geompc/internal/solver"

	_ "geompc/internal/cg"       // registers "cg"
	_ "geompc/internal/cholesky" // registers "direct"
)

func TestNamesAndByName(t *testing.T) {
	names := solver.Names()
	joined := strings.Join(names, ",")
	for _, want := range []string{"cg", "direct"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %s, missing %q", joined, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %s", joined)
		}
	}

	be, err := solver.ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "direct" {
		t.Errorf(`ByName("") = %q, want direct`, be.Name())
	}
	if _, err := solver.ByName("qr"); err == nil {
		t.Error("ByName accepted unknown backend qr")
	} else if !strings.Contains(err.Error(), "qr") {
		t.Errorf("error does not name the bad backend: %v", err)
	}
}

type fakeBackend struct{ name string }

func (f fakeBackend) Name() string { return f.name }
func (f fakeBackend) Solve(solver.Config, *plan.Cache) (*solver.Result, error) {
	return &solver.Result{Backend: f.name}, nil
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	solver.Register(fakeBackend{name: "direct"})
}

func TestRegisterNewName(t *testing.T) {
	solver.Register(fakeBackend{name: "fake-for-test"})
	be, err := solver.ByName("fake-for-test")
	if err != nil {
		t.Fatal(err)
	}
	res, err := be.Solve(solver.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "fake-for-test" {
		t.Errorf("Backend = %q", res.Backend)
	}
}

func TestStrategyString(t *testing.T) {
	if s := solver.Auto.String(); s != "STC" {
		t.Errorf("Auto.String() = %q, want STC", s)
	}
	if s := solver.ForceTTC.String(); s != "TTC" {
		t.Errorf("ForceTTC.String() = %q, want TTC", s)
	}
}

func TestResultAccessors(t *testing.T) {
	r := &solver.Result{Stats: runtime.Stats{ScheduleDigest: 0xbeef}}
	if r.Digest() != 0xbeef {
		t.Errorf("Digest() = %#x", r.Digest())
	}
	if r.Metrics() == nil {
		t.Error("Metrics() returned nil for a nil registry")
	}
	reg := obs.NewRegistry()
	reg.Counter("x").Inc()
	r.Reg = reg
	if got := r.Metrics().Counter("x").Value(); got != 1 {
		t.Errorf("Metrics() dropped the registry: x = %d", got)
	}
}
