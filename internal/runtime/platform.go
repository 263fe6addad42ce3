package runtime

import (
	"fmt"
	"math"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// Platform is the machine a run executes on: `Ranks` processes, each owning
// `DevPerRank` identical GPUs of the node's generation, connected by the
// node's network.
type Platform struct {
	Node       *hw.NodeSpec
	Ranks      int
	DevPerRank int
}

// NewPlatform builds a platform of `ranks` processes with `devPerRank` GPUs
// each. devPerRank defaults to the node's GPU count when 0.
func NewPlatform(node *hw.NodeSpec, ranks, devPerRank int) (*Platform, error) {
	if node == nil {
		return nil, fmt.Errorf("runtime: nil node spec")
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("runtime: invalid rank count %d", ranks)
	}
	if devPerRank < 0 {
		return nil, fmt.Errorf("runtime: negative GPUs per rank %d", devPerRank)
	}
	if devPerRank == 0 {
		devPerRank = node.GPUs
	}
	if devPerRank > node.GPUs {
		return nil, fmt.Errorf("runtime: %d GPUs per rank exceeds node's %d", devPerRank, node.GPUs)
	}
	return &Platform{Node: node, Ranks: ranks, DevPerRank: devPerRank}, nil
}

// NumDevices returns the total GPU count.
func (p *Platform) NumDevices() int { return p.Ranks * p.DevPerRank }

// RankOfDevice returns the rank owning global device index d.
func (p *Platform) RankOfDevice(d int) int { return d / p.DevPerRank }

// DeviceOf returns the global device index of local device l on rank r.
func (p *Platform) DeviceOf(rank, local int) int { return rank*p.DevPerRank + local }

// device is the simulated per-GPU state.
type device struct {
	id   int
	rank int
	spec *hw.GPUSpec

	computeFree float64 // next instant the compute stream is free

	// Host-link directions as serial links: each carries its own free
	// time, cumulative busy time and traced intervals. The Cholesky graph
	// routes all tile exchange through host staging, so a device has no
	// peer (device-to-device) link.
	h2d, d2h *link

	// committed and done count the tasks committed to the stream pipeline
	// and the tasks completed. A device completes its tasks in commit order
	// (each starts after the one before it ends), so tasks 1…done are the
	// completed ones and committed−done are in flight.
	committed, done int32

	dirty bool // queued for a pipeline refill in the current completion

	// resident[d] is the slab slot of datum d's copy on the device, 0 if
	// it has none. slab[0] is a sentinel: slot 0 is "no entry" in the
	// index and in the LRU links.
	resident  []int32
	slab      []residentEntry
	freeSlots []int32 // slab slots released by eviction, reused by insert
	nResident int
	// lruHead/lruTail form an intrusive recency list over slab slots:
	// head = most recently used, tail = eviction candidate. All operations
	// are O(1).
	lruHead, lruTail int32
	used             int64
	writebacks       []evicted // evicted dirty copies, until the engine drains them

	ready queue[int64] // ^Priority, ties by task id

	stats DeviceStats

	// tracing (optional): one interval slice per compute stream; the
	// host-link streams trace inside their links. The power carried
	// by each interval times its duration is exactly the dynamic energy the
	// engine accrued for that activity, so ∑ interval·watts + idle·makespan
	// reconstructs Stats.Energy bit-for-bit (the auditor checks this).
	trace         bool
	busyIntervals []Interval // compute stream: kernel execution
	convIntervals []Interval // compute stream: datatype conversions (STC+TTC)
}

type residentEntry struct {
	data       DataID
	bytes      int64
	use        int32          // commit ordinal of the last task that staged it: pinned while use > done
	prev, next int32          // LRU neighbours' slots, 0 at the ends
	prec       prec.Precision // wire/storage format of the resident copy
	hostCopy   bool           // a host copy exists; eviction needs no writeback
}

// DeviceStats aggregates one device's activity over a run.
type DeviceStats struct {
	BusyTime       float64 // compute-stream occupancy, seconds
	TransferTime   float64 // host-link busy time (H2D plus D2H), seconds
	Flops          float64
	BytesH2D       int64
	BytesD2H       int64
	Evictions      int
	Writebacks     int
	LRUHits        int64   // staged tile already resident (no transfer)
	LRUMisses      int64   // staged tile absent (transfer or fresh allocation)
	DynEnergy      float64 // joules above idle
	PeakResident   int64
	ConvertKernels int
}

// Interval is a traced activity window on a device stream or a link.
type Interval struct {
	Start, End float64
	Power      float64 // dynamic watts during the window
	Bytes      int64   // bytes moved, for transfer streams (0 for compute)
}

// link is one serial transfer resource: a host-link direction or a rank's
// NIC. A transfer is booked in two steps, startAfter then occupy, so a
// broadcast can hold the NIC for one hop of several. With trace set, ivs
// logs every occupancy (the auditor checks they never overlap and sum to
// busy).
type link struct {
	name  string
	spec  hw.LinkSpec
	free  float64 // next instant the link is idle
	busy  float64 // cumulative occupied time
	trace bool
	ivs   []Interval
}

// startAfter returns the earliest instant a transfer may begin: when the
// link is free and the data is available.
func (l *link) startAfter(earliest float64) float64 { return math.Max(l.free, earliest) }

// occupy books the link for [start, start+dur) and returns the end time;
// start must not precede startAfter(…) of the same booking.
func (l *link) occupy(start, dur float64, nbytes int64) float64 {
	end := start + dur
	l.free = end
	l.busy += dur
	if l.trace {
		l.ivs = append(l.ivs, Interval{Start: start, End: end, Power: l.spec.Power, Bytes: nbytes})
	}
	return end
}

func newDevice(id, rank int, spec *hw.GPUSpec, trace bool, nData int) *device {
	return &device{
		id: id, rank: rank, spec: spec,
		trace:    trace,
		h2d:      &link{name: fmt.Sprintf("dev%d/h2d", id), spec: spec.H2DLink(), trace: trace},
		d2h:      &link{name: fmt.Sprintf("dev%d/d2h", id), spec: spec.D2HLink(), trace: trace},
		resident: make([]int32, nData),
		slab:     make([]residentEntry, 1),
	}
}

// entry returns datum id's resident copy, nil if the device has none. The
// pointer is valid until the next insert.
func (d *device) entry(id DataID) *residentEntry {
	if s := d.resident[id]; s != 0 {
		return &d.slab[s]
	}
	return nil
}

// lruUnlink removes slot s from the recency list.
func (d *device) lruUnlink(s int32) {
	e := &d.slab[s]
	if e.prev != 0 {
		d.slab[e.prev].next = e.next
	} else {
		d.lruHead = e.next
	}
	if e.next != 0 {
		d.slab[e.next].prev = e.prev
	} else {
		d.lruTail = e.prev
	}
	e.prev, e.next = 0, 0
}

// lruFront pushes slot s to the most-recently-used end.
func (d *device) lruFront(s int32) {
	e := &d.slab[s]
	e.prev, e.next = 0, d.lruHead
	if d.lruHead != 0 {
		d.slab[d.lruHead].prev = s
	}
	d.lruHead = s
	if d.lruTail == 0 {
		d.lruTail = s
	}
}

// touch marks datum id's copy most recently used and returns its slot, 0
// if the device has none.
func (d *device) touch(id DataID) int32 {
	s := d.resident[id]
	if s != 0 && s != d.lruHead {
		d.lruUnlink(s)
		d.lruFront(s)
	}
	return s
}

// insert adds a copy of datum id, which the device must not hold (the
// engine inserts only after touch misses), evicting LRU entries as needed:
// the dirty ones join d.writebacks, and the device's statistics count them.
// It returns the copy's slot.
func (d *device) insert(id DataID, bytes int64, p prec.Precision, hostCopy bool) int32 {
	// Make room first so the new entry can never evict itself; if every
	// resident tile is pinned the device over-commits instead.
	d.evictTo(d.spec.MemBytes - bytes)
	var s int32
	if n := len(d.freeSlots); n > 0 {
		s = d.freeSlots[n-1]
		d.freeSlots = d.freeSlots[:n-1]
	} else {
		// Slab growth: one slot per concurrently resident tile, recycled on
		// eviction.
		s = int32(len(d.slab))
		d.slab = append(d.slab, residentEntry{})
	}
	d.slab[s] = residentEntry{data: id, bytes: bytes, prec: p, hostCopy: hostCopy}
	d.resident[id] = s
	d.nResident++
	d.lruFront(s)
	d.used += bytes
	if d.used > d.stats.PeakResident {
		d.stats.PeakResident = d.used
	}
	return s
}

// evicted is a dirty copy evicted from a device: the engine turns it into
// a D2H transfer that restores the host copy.
type evicted struct {
	data  DataID
	bytes int64
	prec  prec.Precision
}

func (d *device) evictTo(capacity int64) {
	s := d.lruTail
	for d.used > capacity && s != 0 {
		e := &d.slab[s]
		prev := e.prev
		if e.use > d.done {
			// Pinned entries stay; if everything reachable is pinned the
			// device over-commits rather than deadlocking (bounded
			// lookahead keeps the pinned set to a handful of tiles).
			s = prev
			continue
		}
		if !e.hostCopy {
			d.writebacks = append(d.writebacks, evicted{e.data, e.bytes, e.prec})
			d.stats.Writebacks++
		}
		d.used -= e.bytes
		d.resident[e.data] = 0
		d.lruUnlink(s)
		d.nResident--
		d.freeSlots = append(d.freeSlots, s)
		d.stats.Evictions++
		s = prev
	}
}
