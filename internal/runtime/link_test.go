package runtime

import (
	"testing"

	"geompc/internal/hw"
)

func TestLinkBookkeeping(t *testing.T) {
	spec := hw.LinkSpec{Bw: 50e9, Lat: 10e-6, Power: 25}
	l := &link{name: "dev0/h2d", spec: spec, trace: true}

	if got, want := l.spec.Time(50e9), 1+10e-6; got != want {
		t.Fatalf("Time(50e9) = %g, want %g", got, want)
	}
	// First booking starts at the data-availability bound.
	s1 := l.startAfter(3.0)
	if s1 != 3.0 {
		t.Fatalf("startAfter on idle link = %g, want 3", s1)
	}
	end1 := l.occupy(s1, 2.0, 1024)
	if end1 != 5.0 || l.startAfter(0) != 5.0 {
		t.Fatalf("occupy end = %g free = %g, want 5", end1, l.startAfter(0))
	}
	// Second booking serializes behind the first even if its data was ready
	// earlier.
	s2 := l.startAfter(1.0)
	if s2 != 5.0 {
		t.Fatalf("startAfter on busy link = %g, want 5", s2)
	}
	l.occupy(s2, 1.5, 2048)
	if got, want := l.busy, 3.5; got != want {
		t.Fatalf("busy = %g, want %g", got, want)
	}

	ivs := l.ivs
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals, want 2", len(ivs))
	}
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start < ivs[i-1].End {
			t.Errorf("intervals overlap: [%g,%g) then [%g,%g)", ivs[i-1].Start, ivs[i-1].End, ivs[i].Start, ivs[i].End)
		}
	}
	if ivs[0].Power != 25 || ivs[0].Bytes != 1024 {
		t.Errorf("interval carries power=%g bytes=%d, want 25/1024", ivs[0].Power, ivs[0].Bytes)
	}
	if l.name != "dev0/h2d" {
		t.Errorf("name = %q", l.name)
	}
}

func TestLinkUntracedKeepsNoIntervals(t *testing.T) {
	l := &link{name: "nic", spec: hw.LinkSpec{Bw: 23e9, Lat: 1.5e-6}}
	l.occupy(l.startAfter(0), 1, 64)
	if l.ivs != nil {
		t.Fatalf("untraced link recorded %d intervals", len(l.ivs))
	}
	if l.busy != 1 {
		t.Fatalf("busy = %g, want 1", l.busy)
	}
}
