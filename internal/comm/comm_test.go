package comm

import (
	"testing"

	"geompc/internal/hw"
)

func TestLinkBookkeeping(t *testing.T) {
	spec := hw.LinkSpec{Bw: 50e9, Lat: 10e-6, Power: 25}
	l := NewLink("dev0/h2d", spec, true)

	if got, want := l.Time(50e9), 1+10e-6; got != want {
		t.Fatalf("Time(50e9) = %g, want %g", got, want)
	}
	// First booking starts at the data-availability bound.
	s1 := l.StartAfter(3.0)
	if s1 != 3.0 {
		t.Fatalf("StartAfter on idle link = %g, want 3", s1)
	}
	end1 := l.Occupy(s1, 2.0, 1024)
	if end1 != 5.0 || l.StartAfter(0) != 5.0 {
		t.Fatalf("Occupy end = %g free = %g, want 5", end1, l.StartAfter(0))
	}
	// Second booking serializes behind the first even if its data was ready
	// earlier.
	s2 := l.StartAfter(1.0)
	if s2 != 5.0 {
		t.Fatalf("StartAfter on busy link = %g, want 5", s2)
	}
	l.Occupy(s2, 1.5, 2048)
	if got, want := l.Busy(), 3.5; got != want {
		t.Fatalf("Busy = %g, want %g", got, want)
	}

	ivs := l.Intervals()
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
	if l.Name() != "dev0/h2d" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestLinkUntracedKeepsNoIntervals(t *testing.T) {
	l := NewLink("nic", hw.LinkSpec{Bw: 23e9, Lat: 1.5e-6}, false)
	l.Occupy(l.StartAfter(0), 1, 64)
	if l.Intervals() != nil {
		t.Fatalf("untraced link recorded %d intervals", len(l.Intervals()))
	}
	if l.Busy() != 1 {
		t.Fatalf("Busy = %g, want 1", l.Busy())
	}
}
