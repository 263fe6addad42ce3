package runtime

import (
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// newLRUDevice is a device of the given memory for data 0 … 31.
func newLRUDevice(capacity int64) *device {
	spec := *hw.V100
	spec.MemBytes = capacity
	return newDevice(0, 0, &spec, false, 32)
}

// stageInFlight pins the resident copies of ids as the engine does when
// it commits a task that stages them: the task is in flight until the
// device counts it done.
func stageInFlight(d *device, ids ...DataID) {
	d.committed++
	for _, id := range ids {
		d.entry(id).use = d.committed
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	d := newLRUDevice(30)
	d.insert(1, 10, prec.FP64, true)
	d.insert(2, 10, prec.FP64, true)
	d.insert(3, 10, prec.FP64, true)
	d.touch(1) // 2 becomes LRU
	d.insert(4, 10, prec.FP64, true)
	if d.entry(2) != nil {
		t.Error("LRU entry 2 not evicted")
	}
	for _, id := range []DataID{1, 3, 4} {
		if d.entry(id) == nil {
			t.Errorf("entry %d wrongly evicted", id)
		}
	}
	if d.used != 30 {
		t.Errorf("used = %d, want 30", d.used)
	}
	if len(d.writebacks) != 0 {
		t.Error("clean eviction produced writebacks")
	}
}

func TestLRUDirtyEvictionWritesBack(t *testing.T) {
	d := newLRUDevice(20)
	d.insert(1, 10, prec.FP64, false) // no host copy: dirty
	d.insert(2, 10, prec.FP64, true)
	d.insert(3, 10, prec.FP64, true) // evicts 1
	if len(d.writebacks) != 1 || d.writebacks[0].data != 1 {
		t.Fatalf("expected writeback of 1, got %+v", d.writebacks)
	}
	if d.stats.Writebacks != 1 || d.stats.Evictions != 1 {
		t.Errorf("stats: %+v", d.stats)
	}
}

func TestLRUPinnedEntriesSurvive(t *testing.T) {
	d := newLRUDevice(20)
	d.insert(1, 10, prec.FP64, true)
	stageInFlight(d, 1)
	d.insert(2, 10, prec.FP64, true)
	d.insert(3, 10, prec.FP64, true) // must evict 2, not pinned 1
	if d.entry(1) == nil {
		t.Fatal("pinned entry evicted")
	}
	if d.entry(2) != nil {
		t.Error("unpinned LRU entry 2 survived over-capacity")
	}
	d.done++ // the task that staged 1 completes
	d.insert(4, 10, prec.FP64, true)
	if d.entry(1) != nil {
		t.Error("entry 1 not evictable after unpin")
	}
}

func TestLRUAllPinnedOvercommits(t *testing.T) {
	d := newLRUDevice(15)
	d.insert(1, 10, prec.FP64, true)
	stageInFlight(d, 1)
	d.insert(2, 10, prec.FP64, true)
	stageInFlight(d, 2)
	// Over capacity with everything pinned: no eviction, no panic.
	if d.entry(1) == nil || d.entry(2) == nil {
		t.Error("pinned entries evicted")
	}
	if d.used != 20 {
		t.Errorf("used = %d, want overcommitted 20", d.used)
	}
}

func TestLRUListIntegrity(t *testing.T) {
	// Stress the intrusive list with a mixed op sequence — without and with
	// evictions recycling slab slots — then verify the list matches the
	// index exactly.
	for _, capacity := range []int64{1 << 40, 20} {
		d := newLRUDevice(capacity)
		for i := 0; i < 100; i++ {
			if id := DataID(i % 17); d.touch(id) == 0 {
				d.insert(id, int64(i%7+1), prec.FP64, i%2 == 0)
			}
			d.touch(DataID((i * 5) % 17))
		}
		checkLRU(t, d)
	}
}

func checkLRU(t *testing.T, d *device) {
	t.Helper()
	seen := map[DataID]bool{}
	count := 0
	for s := d.lruHead; s != 0; s = d.slab[s].next {
		e := &d.slab[s]
		if seen[e.data] {
			t.Fatalf("duplicate %d in LRU list", e.data)
		}
		seen[e.data] = true
		count++
		if e.next != 0 && d.slab[e.next].prev != s {
			t.Fatal("broken back-link")
		}
		if d.resident[e.data] != s {
			t.Fatalf("list slot %d holds %d, indexed at slot %d", s, e.data, d.resident[e.data])
		}
	}
	if count != d.nResident {
		t.Fatalf("list has %d entries, index counts %d", count, d.nResident)
	}
	for id, s := range d.resident {
		if s != 0 && !seen[DataID(id)] {
			t.Fatalf("index entry %d missing from list", id)
		}
	}
}
