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
	for _, name := range []string{"sched", "bcast", "plan-cache"} {
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
