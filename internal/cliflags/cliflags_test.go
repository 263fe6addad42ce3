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
	v := Register(fs, Sched)
	if err := fs.Parse([]string{"-sched", "locality", "-bcast", "chain"}); err != nil {
		t.Fatal(err)
	}
	want := Values{Sched: "locality", Bcast: "chain"}
	if *v != want {
		t.Errorf("parsed %+v, want %+v", *v, want)
	}

	// Every command sweeps on one worker per GOMAXPROCS.
	so := v.SchedOpts()
	if so.Policy != "locality" || so.Bcast != "chain" || so.Workers >= 0 {
		t.Errorf("SchedOpts() = %+v", so)
	}
}

func TestRegisterOmitsUnselectedGroups(t *testing.T) {
	fs := newFS()
	Register(fs, 0)
	for _, name := range []string{"sched", "bcast"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s registered without its group", name)
		}
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
