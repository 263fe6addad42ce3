package runtime

import (
	"fmt"

	"geompc/internal/comm"
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

	// Host-link directions (and the intra-node peer lane) as first-class
	// comm.Links: each carries its own free time, cumulative busy time and
	// traced intervals. peer is constructed for symmetry — the Cholesky
	// graph routes all tile exchange through host staging, so it stays
	// idle until a D2D path exists.
	h2d, d2h, peer *comm.Link

	committed int  // tasks accepted into the stream pipeline, not yet done
	dirty     bool // queued for a pipeline refill in the current completion

	// Residency index: residentArr (dense, bound from DataBounder) or
	// resident (map fallback). The dense form turns every touch/pin/unpin
	// into an array index — the phantom scale path does several per task.
	resident    map[DataID]*residentEntry
	residentArr []*residentEntry
	nResident   int
	// lruHead/lruTail form an intrusive recency list: head = most recently
	// used, tail = eviction candidate. All operations are O(1).
	lruHead, lruTail *residentEntry
	used             int64

	ready *taskHeap

	// entryFree recycles residentEntry records across evict/insert cycles;
	// LRU churn on the scale path otherwise allocates one entry per miss.
	entryFree []*residentEntry

	stats DeviceStats

	// tracing (optional): one interval slice per compute stream; the
	// host-link streams trace inside their comm.Links. The power carried
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
	prec       prec.Precision // wire/storage format of the resident copy
	pins       int
	hostCopy   bool // a host copy exists; eviction needs no writeback
	prev, next *residentEntry
}

// DeviceStats aggregates one device's activity over a run.
type DeviceStats struct {
	BusyTime       float64 // compute-stream occupancy, seconds
	TransferTime   float64 // host-link busy time (max of H2D/D2H), seconds
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

// Interval is a traced activity window. It is comm's Interval type: device
// streams and links share one trace currency.
type Interval = comm.Interval

func newDevice(id, rank int, spec *hw.GPUSpec, trace bool, dataBound int) *device {
	d := &device{
		id: id, rank: rank, spec: spec,
		ready: &taskHeap{},
		trace: trace,
		h2d:   comm.NewLink(fmt.Sprintf("dev%d/h2d", id), spec.H2DLink(), trace),
		d2h:   comm.NewLink(fmt.Sprintf("dev%d/d2h", id), spec.D2HLink(), trace),
		peer:  comm.NewLink(fmt.Sprintf("dev%d/peer", id), spec.PeerLink(), trace),
	}
	if dataBound > 0 {
		d.residentArr = make([]*residentEntry, dataBound)
	} else {
		d.resident = make(map[DataID]*residentEntry)
	}
	return d
}

func (d *device) entry(id DataID) *residentEntry {
	if d.residentArr != nil {
		return d.residentArr[id]
	}
	return d.resident[id]
}

func (d *device) setEntry(id DataID, e *residentEntry) {
	if d.residentArr != nil {
		d.residentArr[id] = e
	} else {
		d.resident[id] = e
	}
	d.nResident++
}

func (d *device) delEntry(id DataID) {
	if d.residentArr != nil {
		d.residentArr[id] = nil
	} else {
		delete(d.resident, id)
	}
	d.nResident--
}

// lruUnlink removes e from the recency list.
func (d *device) lruUnlink(e *residentEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		d.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		d.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruFront pushes e to the most-recently-used end.
func (d *device) lruFront(e *residentEntry) {
	e.prev, e.next = nil, d.lruHead
	if d.lruHead != nil {
		d.lruHead.prev = e
	}
	d.lruHead = e
	if d.lruTail == nil {
		d.lruTail = e
	}
}

func (d *device) touch(id DataID) *residentEntry {
	e := d.entry(id)
	if e != nil {
		d.lruUnlink(e)
		d.lruFront(e)
	}
	return e
}

// insert adds a resident copy, evicting LRU entries as needed. It returns
// the time at which required writebacks complete (0 when none), so callers
// can order dependent transfers, and records eviction statistics.
func (d *device) insert(id DataID, bytes int64, p prec.Precision, hostCopy bool, now float64, ev *evictSink) {
	if e := d.entry(id); e != nil {
		d.lruUnlink(e)
		d.lruFront(e)
		if bytes > e.bytes {
			d.used += bytes - e.bytes
			e.bytes = bytes
		}
		e.prec = p
		e.hostCopy = e.hostCopy || hostCopy
		return
	}
	// Make room first so the new entry can never evict itself; if every
	// resident tile is pinned the device over-commits instead.
	d.evictTo(d.spec.MemBytes-bytes, now, ev)
	var e *residentEntry
	if n := len(d.entryFree); n > 0 {
		e = d.entryFree[n-1]
		d.entryFree = d.entryFree[:n-1]
		*e = residentEntry{data: id, bytes: bytes, prec: p, hostCopy: hostCopy}
	} else {
		// Freelist miss: one entry per distinct resident tile, recycled on eviction.
		e = &residentEntry{data: id, bytes: bytes, prec: p, hostCopy: hostCopy}
	}
	d.setEntry(id, e)
	d.lruFront(e)
	d.used += bytes
	if d.used > d.stats.PeakResident {
		d.stats.PeakResident = d.used
	}
}

// evictSink receives the tiles that must be written back to host during
// eviction; the engine turns them into D2H transfers and host copies.
type evictSink struct {
	writebacks []evicted
}

type evicted struct {
	data  DataID
	bytes int64
	prec  prec.Precision
}

func (d *device) evictTo(capacity int64, now float64, ev *evictSink) {
	_ = now
	e := d.lruTail
	for d.used > capacity && e != nil {
		prev := e.prev
		if e.pins > 0 {
			// Pinned entries stay; if everything reachable is pinned the
			// device over-commits rather than deadlocking (bounded
			// lookahead keeps the pinned set to a handful of tiles).
			e = prev
			continue
		}
		if !e.hostCopy && ev != nil {
			ev.writebacks = append(ev.writebacks, evicted{e.data, e.bytes, e.prec})
			d.stats.Writebacks++
		}
		d.used -= e.bytes
		d.lruUnlink(e)
		d.delEntry(e.data)
		d.entryFree = append(d.entryFree, e)
		d.stats.Evictions++
		e = prev
	}
}

func (d *device) pin(id DataID) {
	if e := d.entry(id); e != nil {
		e.pins++
	}
}

func (d *device) unpin(id DataID) {
	if e := d.entry(id); e != nil && e.pins > 0 {
		e.pins--
	}
}
