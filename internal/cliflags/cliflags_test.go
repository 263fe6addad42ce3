package cliflags

import (
	"flag"
	"strings"
	"testing"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{})
	return fs
}

func TestRegisterSelectsGroups(t *testing.T) {
	fs := newFS()
	v := Register(fs, Sched|PlanCache|Workers)
	err := fs.Parse([]string{
		"-sched", "locality", "-bcast", "chain",
		"-plan-cache", "-workers", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Values{Sched: "locality", Bcast: "chain", PlanCache: true, Workers: 4}
	if *v != want {
		t.Errorf("parsed %+v, want %+v", *v, want)
	}

	so := v.SchedOpts()
	if so.Policy != "locality" || so.Bcast != "chain" || so.Workers != 4 {
		t.Errorf("SchedOpts() = %+v", so)
	}
	if sw := v.SweepOpts(); sw.Workers != 4 {
		t.Errorf("SweepOpts() = %+v", sw)
	}
}

// TestCacheAndSummaryWiring: -plan-cache yields one cache shared by every
// SchedOpts call (nil without the flag), and only a pooled sweep prints the
// throughput summary its runs record.
func TestCacheAndSummaryWiring(t *testing.T) {
	serial := &Values{}
	var out strings.Builder
	if so := serial.SchedOpts(); so.Cache != nil {
		t.Errorf("zero Values wired a cache: %+v", so)
	}
	serial.WriteSummary(&out, "\n")
	if out.Len() != 0 {
		t.Errorf("serial WriteSummary printed %q", out.String())
	}

	pooled := &Values{PlanCache: true, Workers: 2}
	a, b := pooled.SchedOpts(), pooled.SchedOpts()
	if a.Cache == nil || a.Cache != b.Cache || a.Cache != pooled.Cache() {
		t.Error("-plan-cache must hand every caller the same cache")
	}
	if a.Summary == nil || a.Summary != pooled.SweepOpts().Summary {
		t.Error("every sweep must record into the one summary")
	}
	a.Summary.Points = 7
	pooled.WriteSummary(&out, "\n")
	if got := out.String(); !strings.HasPrefix(got, "\nsweep: 7 points") || !strings.HasSuffix(got, "\n") {
		t.Errorf("WriteSummary printed %q", got)
	}
}

func TestRegisterOmitsUnselectedGroups(t *testing.T) {
	fs := newFS()
	Register(fs, Workers)
	for _, name := range []string{"sched", "bcast", "plan-cache", "solver"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s registered without its group", name)
		}
	}
	if fs.Lookup("workers") == nil {
		t.Error("flag -workers missing")
	}
	if err := fs.Parse([]string{"-sched", "fifo"}); err == nil {
		t.Error("unregistered -sched accepted")
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes("16384, 32768,49152")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16384, 32768, 49152}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "12,abc", "12,,13", "0", "-4", "12;13"} {
		if out, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) = %v, want error", bad, out)
		}
	}
}

func TestRegisterSolver(t *testing.T) {
	fs := newFS()
	v := Register(fs, Solver)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if v.Solver != "direct" {
		t.Errorf("default Solver = %q, want direct", v.Solver)
	}
	be, err := v.Backend()
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "direct" {
		t.Errorf("Backend() = %q, want direct", be.Name())
	}

	fs2 := newFS()
	v2 := Register(fs2, Solver)
	if err := fs2.Parse([]string{"-solver", "cg"}); err != nil {
		t.Fatal(err)
	}
	if v2.Solver != "cg" {
		t.Errorf("Solver = %q, want cg", v2.Solver)
	}
	be2, err := v2.Backend()
	if err != nil {
		t.Fatal(err)
	}
	if be2.Name() != "cg" {
		t.Errorf("Backend() = %q, want cg", be2.Name())
	}
	if so := v2.SchedOpts(); so.Solver != "cg" {
		t.Errorf("SchedOpts() dropped Solver: %+v", so)
	}

	fs3 := newFS()
	v3 := Register(fs3, Solver)
	if err := fs3.Parse([]string{"-solver", "qr"}); err != nil {
		t.Fatal(err)
	}
	if _, err := v3.Backend(); err == nil {
		t.Error("Backend() accepted unknown solver qr")
	}
}

func TestRegisterSolverOmitted(t *testing.T) {
	fs := newFS()
	Register(fs, Workers)
	if fs.Lookup("solver") != nil {
		t.Error("flag -solver registered without its group")
	}
}
