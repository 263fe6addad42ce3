package sched

import (
	"sort"
	"testing"
)

// fakeMachine is a 1-rank, 3-device machine with a settable residency table.
type fakeMachine struct {
	per      int
	resident map[int]map[int64]int64 // dev -> data -> bytes
}

func (m *fakeMachine) NumDevices() int  { return m.per }
func (m *fakeMachine) DevPerRank() int  { return m.per }
func (m *fakeMachine) RankOf(d int) int { return d / m.per }
func (m *fakeMachine) ResidentBytes(dev int, data int64) int64 {
	return m.resident[dev][data]
}

func TestFIFOOrderMatchesHistoricalHeap(t *testing.T) {
	// Descending priority, ascending id — the engine's historical total
	// order. Ten keys tie on priority, so a tie-break that is not the id
	// (a coin flip passes a single tied pair every other run) cannot
	// order them all by luck.
	keys := []Key{
		{ID: 3, Priority: 10},
		{ID: 1, Priority: 10},
		{ID: 0, Priority: 5},
		{ID: 2, Priority: 20},
	}
	for id := 11; id > 3; id-- {
		keys = append(keys, Key{ID: id, Priority: 10})
	}
	sort.Slice(keys, func(i, j int) bool { return FIFO{}.Before(keys[i], keys[j]) })
	want := []int{2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0}
	for i, k := range keys {
		if k.ID != want[i] {
			t.Fatalf("order %v, want ids %v", keys, want)
		}
	}
}

func TestCriticalPathOrder(t *testing.T) {
	p := CriticalPath{}
	a := Key{ID: 9, Priority: 1, CP: 50}
	b := Key{ID: 1, Priority: 99, CP: 3}
	if !p.Before(a, b) {
		t.Error("longer critical path must win over priority")
	}
	// CP ties fall back to FIFO order.
	c := Key{ID: 2, Priority: 7, CP: 3}
	if !p.Before(c, b.withPriority(5)) {
		t.Error("CP tie must fall back to priority")
	}
}

func (k Key) withPriority(p int64) Key { k.Priority = p; return k }

func TestLocalityPlacement(t *testing.T) {
	m := &fakeMachine{per: 3, resident: map[int]map[int64]int64{
		0: {},
		1: {7: 4096, 8: 4096},
		2: {7: 1024},
	}}
	refs := []DataRef{{Data: 7, Bytes: 4096}, {Data: 8, Bytes: 4096}}
	if got := (Locality{}).Place(0, refs, m); got != 1 {
		t.Errorf("Place = dev%d, want dev1 (holds both inputs)", got)
	}
	// Strict improvement only: equal scores keep the owner-computes home.
	m.resident[0] = map[int64]int64{7: 4096, 8: 4096}
	if got := (Locality{}).Place(0, refs, m); got != 0 {
		t.Errorf("Place = dev%d, want home dev0 on tie", got)
	}
	// No inputs, or a single-device rank: stay home.
	if got := (Locality{}).Place(0, nil, m); got != 0 {
		t.Errorf("Place with no inputs = dev%d, want 0", got)
	}
}

func TestByName(t *testing.T) {
	for _, want := range Policies() {
		got, err := ByName(want.Name())
		if err != nil || got.Name() != want.Name() {
			t.Errorf("ByName(%q) = %v, %v", want.Name(), got, err)
		}
	}
	if def, err := ByName(""); err != nil || def.Name() != "fifo" {
		t.Errorf("ByName(\"\") = %v, %v; want fifo", def, err)
	}
	if cp, err := ByName("critical-path"); err != nil || cp.Name() != "cp" {
		t.Errorf("ByName(critical-path) = %v, %v", cp, err)
	}
	if _, err := ByName("random"); err == nil {
		t.Error("ByName(random) succeeded, want error")
	}
}
