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

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	d := newLRUDevice(30)
	var sink evictSink
	d.insert(1, 10, prec.FP64, true, &sink)
	d.insert(2, 10, prec.FP64, true, &sink)
	d.insert(3, 10, prec.FP64, true, &sink)
	d.touch(1) // 2 becomes LRU
	d.insert(4, 10, prec.FP64, true, &sink)
	if d.resident[2] != nil {
		t.Error("LRU entry 2 not evicted")
	}
	for _, id := range []DataID{1, 3, 4} {
		if d.resident[id] == nil {
			t.Errorf("entry %d wrongly evicted", id)
		}
	}
	if d.used != 30 {
		t.Errorf("used = %d, want 30", d.used)
	}
	if len(sink.writebacks) != 0 {
		t.Error("clean eviction produced writebacks")
	}
}

func TestLRUDirtyEvictionWritesBack(t *testing.T) {
	d := newLRUDevice(20)
	var sink evictSink
	d.insert(1, 10, prec.FP64, false, &sink) // no host copy: dirty
	d.insert(2, 10, prec.FP64, true, &sink)
	d.insert(3, 10, prec.FP64, true, &sink) // evicts 1
	if len(sink.writebacks) != 1 || sink.writebacks[0].data != 1 {
		t.Fatalf("expected writeback of 1, got %+v", sink.writebacks)
	}
	if d.stats.Writebacks != 1 || d.stats.Evictions != 1 {
		t.Errorf("stats: %+v", d.stats)
	}
}

func TestLRUPinnedEntriesSurvive(t *testing.T) {
	d := newLRUDevice(20)
	var sink evictSink
	d.insert(1, 10, prec.FP64, true, &sink)
	d.pin(1)
	d.insert(2, 10, prec.FP64, true, &sink)
	d.insert(3, 10, prec.FP64, true, &sink) // must evict 2, not pinned 1
	if d.resident[1] == nil {
		t.Fatal("pinned entry evicted")
	}
	if d.resident[2] != nil {
		t.Error("unpinned LRU entry 2 survived over-capacity")
	}
	d.unpin(1)
	d.insert(4, 10, prec.FP64, true, &sink)
	if d.resident[1] != nil {
		t.Error("entry 1 not evictable after unpin")
	}
}

func TestLRUAllPinnedOvercommits(t *testing.T) {
	d := newLRUDevice(15)
	var sink evictSink
	d.insert(1, 10, prec.FP64, true, &sink)
	d.pin(1)
	d.insert(2, 10, prec.FP64, true, &sink)
	d.pin(2)
	// Over capacity with everything pinned: no eviction, no panic.
	if d.resident[1] == nil || d.resident[2] == nil {
		t.Error("pinned entries evicted")
	}
	if d.used != 20 {
		t.Errorf("used = %d, want overcommitted 20", d.used)
	}
}

func TestLRUReinsertUpdatesSize(t *testing.T) {
	d := newLRUDevice(100)
	var sink evictSink
	d.insert(1, 10, prec.FP64, false, &sink)
	d.insert(1, 25, prec.FP64, true, &sink) // growth + host copy upgrade
	if d.used != 25 {
		t.Errorf("used = %d, want 25", d.used)
	}
	e := d.resident[1]
	if !e.hostCopy {
		t.Error("host copy flag not upgraded")
	}
	d.insert(1, 5, prec.FP64, false, &sink) // shrink must not reduce accounting
	if d.used != 25 {
		t.Errorf("used = %d after smaller reinsert, want 25", d.used)
	}
}

func TestLRUListIntegrity(t *testing.T) {
	// Stress the intrusive list with a mixed op sequence, then verify the
	// list matches the index exactly.
	d := newLRUDevice(1 << 40)
	var sink evictSink
	for i := 0; i < 100; i++ {
		d.insert(DataID(i%17), int64(i%7+1), prec.FP64, i%2 == 0, &sink)
		d.touch(DataID((i * 5) % 17))
	}
	seen := map[DataID]bool{}
	count := 0
	for e := d.lruHead; e != nil; e = e.next {
		if seen[e.data] {
			t.Fatalf("duplicate %d in LRU list", e.data)
		}
		seen[e.data] = true
		count++
		if e.next != nil && e.next.prev != e {
			t.Fatal("broken back-link")
		}
	}
	if count != d.nResident {
		t.Fatalf("list has %d entries, index counts %d", count, d.nResident)
	}
	for id, e := range d.resident {
		if e != nil && !seen[DataID(id)] {
			t.Fatalf("index entry %d missing from list", id)
		}
	}
}
