package runtime

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// Options are the knobs of one simulated run.
type Options struct {
	// Trace records the run's timeline in Stats.Trace: every committed
	// task and the activity intervals of every device stream and NIC (the
	// Fig 3/9/10 experiments; costs memory on large runs).
	Trace bool

	// Audit enables the run-invariant auditor: pin-count balance at
	// completion, LRU residency within device memory whenever evictable
	// tiles exist, per-link interval consistency, and exact energy
	// conservation between the interval traces and Stats.Energy. Auditing
	// implies Trace; Run returns an error listing the violations, if any.
	Audit bool

	// Lookahead is the number of tasks each device pipeline accepts ahead
	// of execution (stream double-buffering); 0 means 2.
	Lookahead int
}

// engine is the state of one run of a Graph on a Platform (see Run). The
// schedule is the paper's: owner-computes placement, ready queues ordered
// by priority (see queue), binomial-tree broadcasts (publish).
type engine struct {
	plat *Platform
	g    Graph
	opt  Options

	devices []*device
	// nics holds one link per rank: the send side of its broadcasts.
	nics []*link

	// nData is g.NumData(). hostAvail[rank*nData+d] is the virtual time
	// datum d's host copy becomes readable at rank, hostAbsent if it has
	// none there.
	nData     int
	hostAvail []float64
	pending   []int32
	events    queue[float64] // completion times, ties by commit sequence
	specFree  []*TaskSpec
	seq       int64
	now       float64
	succBuf   []int
	done      int
	dirtyDevs []int
	// fatalErr is the first malformed-graph error (see fail); run stops on it.
	fatalErr error

	// bodies runs the numeric bodies (nil until one commits).
	bodies *bodyExec

	schedule []ScheduledTask

	// digest is the FNV-1a schedule digest (see Stats.ScheduleDigest), fed
	// one record per committed task through the reused buffer digestRec.
	digest    hash.Hash64
	digestRec []byte
	auditViol []string

	stats Stats
}

// Run executes g on plat once, to completion, and returns the run's
// record: its statistics and, with opt.Trace, its timeline in Stats.Trace.
// It returns only once each numeric body it started has returned. bodyErr
// is the numeric failure: the error of the lowest-numbered task whose body
// failed (its descendants were skipped); it is not a run error. A body's
// panic is (the lowest-numbered task's, naming it). Run is the one check of
// a graph: a malformed one (see GraphError) aborts the run with a
// *GraphError; cycles and tasks declaring more predecessors than edges
// leave tasks unexecuted, a plain error. With opt.Audit, invariant
// violations are reported as an error after the run.
func Run(plat *Platform, g Graph, opt Options) (st Stats, bodyErr, err error) {
	if opt.Audit {
		opt.Trace = true // the energy-conservation check needs the intervals
	}
	if opt.Lookahead <= 0 {
		opt.Lookahead = 2
	}
	e := &engine{plat: plat, g: g, opt: opt, digest: fnv.New64a()}
	n := g.NumTasks()
	e.nData = g.NumData()
	e.hostAvail = make([]float64, e.nData*e.plat.Ranks)
	for i := range e.hostAvail {
		e.hostAvail[i] = hostAbsent
	}
	e.devices = make([]*device, e.plat.NumDevices())
	for i := range e.devices {
		e.devices[i] = newDevice(i, e.plat.RankOfDevice(i), e.plat.Node.GPU, e.opt.Trace, e.nData)
	}
	e.nics = make([]*link, e.plat.Ranks)
	for r := range e.nics {
		e.nics[r] = &link{name: fmt.Sprintf("rank%d/nic", r), spec: e.plat.Node.NICLink(), trace: e.opt.Trace}
	}
	e.pending = make([]int32, n)
	defer func() {
		if e.bodies != nil {
			var crash error
			bodyErr, crash = e.bodies.finish()
			if err == nil && crash != nil {
				st, err = Stats{}, crash
			}
		}
	}()

	e.g.InitialData(func(d DataID, rank int) {
		switch {
		case !e.isData(d):
			e.fail(&GraphError{Task: -1, Msg: fmt.Sprintf("initial datum %d outside [0,%d)", d, e.nData)})
		case rank < 0 || rank >= e.plat.Ranks:
			e.fail(&GraphError{Task: -1, Msg: fmt.Sprintf("initial datum %d at invalid rank %d", d, rank)})
		default:
			*e.host(rank, d) = 0
		}
	})
	if e.fatalErr != nil {
		return Stats{}, nil, e.fatalErr
	}

	for id := 0; id < n; id++ {
		e.pending[id] = int32(e.g.NumPredecessors(id))
		if e.pending[id] == 0 {
			e.enqueueReady(id)
		}
	}
	for i := range e.devices {
		e.tryCommit(e.devices[i])
	}
	if e.fatalErr != nil {
		return Stats{}, nil, e.fatalErr
	}

	for e.events.Len() > 0 {
		ev := e.events.pop()
		e.now = ev.key
		e.complete(ev.spec)
		if e.fatalErr != nil {
			return Stats{}, nil, e.fatalErr
		}
	}

	if e.done != n {
		return Stats{}, nil, neverReady(n-e.done, n)
	}
	e.finalizeStats()
	if e.opt.Audit {
		e.auditFinal()
		if len(e.auditViol) > 0 {
			return e.stats, nil, fmt.Errorf("runtime: audit found %d invariant violation(s): %v", len(e.auditViol), e.auditViol)
		}
	}
	return e.stats, nil, nil
}

// hostAbsent marks a hostAvail slot with no host copy; availability times
// are always ≥ 0.
const hostAbsent = -1.0

// host returns the hostAvail slot of datum d at rank.
func (e *engine) host(rank int, d DataID) *float64 { return &e.hostAvail[rank*e.nData+int(d)] }

// isData reports whether d lies in the graph's data range.
func (e *engine) isData(d DataID) bool { return d >= 0 && d < DataID(e.nData) }

// enqueueReady materializes task id's spec from the freelist and pushes it
// onto its device's ready queue; a spec the engine cannot run fails the run.
func (e *engine) enqueueReady(id int) int {
	var spec *TaskSpec
	if n := len(e.specFree); n > 0 {
		spec, e.specFree = e.specFree[n-1], e.specFree[:n-1]
	} else {
		spec = &TaskSpec{} // freelist warm-up: allocates only until the steady-state population exists
	}
	e.g.Spec(id, spec)
	spec.ID = id
	if msg := e.malformed(spec); msg != "" {
		e.fail(&GraphError{Task: id, Msg: msg})
		e.specFree = append(e.specFree, spec)
		return 0
	}
	d := e.devices[spec.Device]
	d.ready.push(^spec.Priority, int64(id), spec)
	return d.id
}

// malformed says what makes spec unrunnable — a device or rank outside
// the platform, a datum outside the graph's range, a publish with no
// output — or returns "".
func (e *engine) malformed(spec *TaskSpec) string {
	if spec.Device < 0 || spec.Device >= len(e.devices) {
		return fmt.Sprintf("assigned to invalid device %d", spec.Device)
	}
	if spec.Kind >= hw.NumKinds || int(spec.Prec) >= prec.Count || !(spec.Flops >= 0) {
		return fmt.Sprintf("runs kernel %d in precision %d over %g flops", spec.Kind, spec.Prec, spec.Flops)
	}
	for i := range spec.Inputs {
		if d := spec.Inputs[i].Data; !e.isData(d) {
			return fmt.Sprintf("reads datum %d outside [0,%d)", d, e.nData)
		}
	}
	if d := spec.Output.Data; d >= 0 && !e.isData(d) {
		return fmt.Sprintf("writes datum %d outside [0,%d)", d, e.nData)
	}
	if p := spec.Publish; p != nil {
		if spec.Output.Data < 0 {
			return "publishes without an output"
		}
		for _, r := range p.RemoteRanks {
			if r < 0 || r >= e.plat.Ranks {
				return fmt.Sprintf("publishes to invalid rank %d", r)
			}
		}
	}
	return ""
}

// tryCommit feeds the device's stream pipeline up to the lookahead depth.
func (e *engine) tryCommit(d *device) {
	for e.fatalErr == nil && int(d.committed-d.done) < e.opt.Lookahead && d.ready.Len() > 0 {
		e.commit(d, d.ready.pop().spec)
	}
}

// commit stages a task's data onto the device and schedules its execution.
func (e *engine) commit(d *device, spec *TaskSpec) {
	stagingEnd := e.now
	var stagedBytes int64

	// stage pins the datum's copy on the device until this task completes,
	// transferring it first if it is absent. It captures commit-local
	// tallies and never escapes commit, so the closure stays off the heap.
	stage := func(data DataID, bytes int64, wp prec.Precision, isOutput bool) {
		stagedBytes += bytes
		s := d.touch(data)
		if s != 0 {
			d.stats.LRUHits++
			if isOutput {
				d.slab[s].hostCopy = false // it is about to be overwritten
			}
		} else {
			d.stats.LRUMisses++
			switch avail := *e.host(d.rank, data); {
			case avail != hostAbsent:
				if end := e.hostCopy(d, d.h2d, math.Max(avail, e.now), bytes, wp); end > stagingEnd {
					stagingEnd = end
				}
			case !isOutput:
				e.fail(&GraphError{Task: spec.ID, Msg: fmt.Sprintf("input %d not available at rank %d", data, d.rank)})
				return
			}
			// A fresh output with no prior contents is allocated only.
			s = d.insert(data, bytes, wp, !isOutput)
		}
		d.slab[s].use = d.committed + 1
	}

	for i := range spec.Inputs {
		in := &spec.Inputs[i]
		stage(in.Data, in.WireBytes, in.WirePrec, false)
	}
	if spec.Output.Data >= 0 {
		stage(spec.Output.Data, spec.Output.Bytes, spec.Output.Prec, true)
	}
	if e.fatalErr != nil {
		// Malformed graph: abort before booking compute. Run surfaces the
		// GraphError; partial staging state is irrelevant past this point.
		e.specFree = append(e.specFree, spec)
		return
	}
	e.drainWritebacks(d)
	if e.opt.Audit {
		e.auditResidency(d, spec.ID)
	}

	// Receiver-side conversions run on the compute stream before the kernel.
	var convDur float64
	for i := range spec.Inputs {
		in := &spec.Inputs[i]
		if in.ConvertElems > 0 {
			convDur += d.spec.ConvertTime(in.ConvertElems, in.ConvFrom, in.ConvTo)
			e.stats.ReceiverConversions++
			d.stats.ConvertKernels++
		}
	}

	kernelDur := 0.0
	if spec.Flops > 0 {
		kernelDur = d.spec.KernelTime(spec.Kind, spec.Prec, spec.Flops)
	}
	start := math.Max(d.computeFree, stagingEnd)
	end := start + convDur + kernelDur
	d.computeFree = end
	d.committed++

	d.stats.BusyTime += convDur + kernelDur
	d.stats.Flops += spec.Flops
	dynW, convW := d.spec.DynPower(spec.Prec), convPower(d.spec)
	d.stats.DynEnergy += dynW*kernelDur + convW*convDur
	if d.trace {
		// Conversion and kernel windows carry their own power levels so the
		// traced intervals integrate exactly to the energy accrued above.
		if convDur > 0 {
			d.convIntervals = append(d.convIntervals, Interval{Start: start, End: start + convDur, Power: convW})
		}
		if end > start+convDur {
			d.busyIntervals = append(d.busyIntervals, Interval{Start: start + convDur, End: end, Power: dynW})
		}
		e.schedule = append(e.schedule, ScheduledTask{
			ID: spec.ID, Kind: spec.Kind, Device: spec.Device, Prec: spec.Prec, Start: start, End: end,
		})
	}
	rec := append(e.digestRec[:0], spec.Kind.String()...)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(spec.Device))
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(start))
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(end))
	rec = binary.LittleEndian.AppendUint64(rec, uint64(stagedBytes))
	e.digest.Write(rec)
	e.digestRec = rec

	if spec.Body != nil || e.bodies != nil {
		if e.bodies == nil {
			e.startBodies()
		}
		e.bodies.commit(spec.ID, spec.Priority, spec.Body)
	}
	e.seq++
	e.events.push(end, e.seq, spec)
}

// startBodies creates the body executor at the first commit that carries a
// body, so phantom runs never pay for it. The tasks committed before had
// none, which counts as returned: any other task waits for its pending
// predecessors less those in flight, and for its own commit.
func (e *engine) startBodies() {
	x := newBodyExec(e.g, len(e.pending))
	for id, p := range e.pending {
		x.wait[id] = p + 1
	}
	for i := range e.events.items {
		e.succBuf = e.g.Successors(e.events.items[i].spec.ID, e.succBuf[:0])
		for _, s := range e.succBuf {
			if uint(s) < uint(len(x.wait)) { // else complete fails the run
				x.wait[s]--
			}
		}
	}
	e.bodies = x
}

// convPowerFrac is the fraction of the dynamic power range a datatype
// conversion kernel draws (memory-bound, low arithmetic intensity).
const convPowerFrac = 0.25

// convPower is the dynamic power of a conversion kernel on gpu.
func convPower(gpu *hw.GPUSpec) float64 { return convPowerFrac * (gpu.TDP - gpu.IdleW) }

// hostCopy books nbytes in format p over l, one of d's host links, once l
// is free after earliest, counts the bytes and energy, and returns the end.
func (e *engine) hostCopy(d *device, l *link, earliest float64, nbytes int64, p prec.Precision) float64 {
	dur := l.spec.Time(nbytes)
	end := l.occupy(l.startAfter(earliest), dur, nbytes)
	if l == d.h2d {
		d.stats.BytesH2D += nbytes
		e.stats.H2DByPrec[p] += nbytes
	} else {
		d.stats.BytesD2H += nbytes
		e.stats.D2HByPrec[p] += nbytes
	}
	d.stats.DynEnergy += d.spec.TransferW * dur
	return end
}

// drainWritebacks turns evicted dirty tiles into D2H transfers and restores
// their host copies.
func (e *engine) drainWritebacks(d *device) {
	for _, wb := range d.writebacks {
		*e.host(d.rank, wb.data) = e.hostCopy(d, d.d2h, e.now, wb.bytes, wb.prec)
	}
	d.writebacks = d.writebacks[:0]
}

// complete processes a task's completion event in virtual time: publishes
// the output and releases successors. It does not wait for the numeric
// body — the body executor orders real execution, by dataflow.
func (e *engine) complete(spec *TaskSpec) {
	d := e.devices[spec.Device]

	if p := spec.Publish; p != nil {
		e.publish(d, spec, p)
	}

	e.done++
	d.done++ // unpins every copy this task was the last to stage
	e.stats.Tasks++
	e.stats.TotalFlops += spec.Flops

	e.succBuf = e.g.Successors(spec.ID, e.succBuf[:0])
	e.dirtyDevs = append(e.dirtyDevs[:0], d.id)
	d.dirty = true
	for _, s := range e.succBuf {
		if uint(s) >= uint(len(e.pending)) {
			e.fail(&GraphError{Task: spec.ID, Msg: fmt.Sprintf("lists successor %d outside [0,%d)", s, len(e.pending))})
			return
		}
		e.pending[s]--
		switch {
		case e.pending[s] == 0:
			dev := e.enqueueReady(s)
			if dd := e.devices[dev]; !dd.dirty {
				dd.dirty = true
				e.dirtyDevs = append(e.dirtyDevs, dev)
			}
		case e.pending[s] < 0:
			e.fail(&GraphError{Task: s, Msg: "released more than its in-degree"})
			return
		}
	}
	// The task is fully retired; its spec (and the slices hanging off it)
	// goes back to the freelist for the next enqueueReady to refill.
	e.specFree = append(e.specFree, spec)
	// Feed the pipelines of every device that finished a task or gained a
	// ready one.
	for _, di := range e.dirtyDevs {
		dd := e.devices[di]
		dd.dirty = false
		e.tryCommit(dd)
	}
}

// publish performs STC conversion, D2H, and the network broadcast of a
// task's output, making it available in host memory at consumer ranks.
func (e *engine) publish(d *device, spec *TaskSpec, p *PublishSpec) {
	t := e.now
	if p.ConvertElems > 0 {
		// Sender-side conversion on the producer's compute stream.
		dur := d.spec.ConvertTime(p.ConvertElems, p.ConvFrom, p.ConvTo)
		start := math.Max(d.computeFree, t)
		d.computeFree = start + dur
		t = start + dur
		convW := convPower(d.spec)
		d.stats.BusyTime += dur
		d.stats.DynEnergy += convW * dur
		d.stats.ConvertKernels++
		e.stats.SenderConversions++
		if d.trace {
			d.convIntervals = append(d.convIntervals, Interval{Start: start, End: t, Power: convW})
		}
	}
	// D2H of the wire representation.
	hostAt := e.hostCopy(d, d.d2h, t, p.WireBytes, p.WirePrec)
	*e.host(d.rank, spec.Output.Data) = hostAt
	if entry := d.entry(spec.Output.Data); entry != nil {
		entry.hostCopy = true
	}

	if n := len(p.RemoteRanks); n > 0 {
		// Binomial-tree broadcast: the root sends once, then every holder
		// forwards in parallel — one hop of NIC occupancy at the sender,
		// every receiver served after ceil(log2(n+1)) hops.
		nic := e.nics[d.rank]
		hop := nic.spec.Time(p.WireBytes)
		nstart := nic.startAfter(hostAt)
		nic.occupy(nstart, hop, p.WireBytes)
		arrive := nstart + hop*math.Ceil(math.Log2(float64(n)+1))
		for _, rr := range p.RemoteRanks {
			*e.host(rr, spec.Output.Data) = arrive
			e.stats.BytesNet += p.WireBytes
			e.stats.NetByPrec[p.WirePrec] += p.WireBytes
		}
	}
}
