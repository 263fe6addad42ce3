package runtime

import (
	"fmt"
	"math"

	"geompc/internal/comm"
	"geompc/internal/obs"
	"geompc/internal/prec"
)

// Engine executes a Graph on a Platform, producing virtual-time statistics
// and (when task bodies are present) real numeric results. The engine is
// the orchestration core; the communication links live in internal/comm.
// The schedule is the paper's: owner-computes placement, ready queues
// ordered by priority (readyBefore), binomial-tree broadcasts (publish).
type Engine struct {
	plat *Platform
	g    Graph

	// Trace enables per-interval power/occupancy recording on all devices
	// and links (used by the Fig 9/10 experiments; costs memory on large
	// runs).
	Trace bool

	// Audit enables the run-invariant auditor: pin-count balance at
	// completion, LRU residency within device memory whenever evictable
	// tiles exist, per-link interval consistency, and exact energy
	// conservation between the interval traces and Stats.Energy. Auditing
	// forces Trace on; Run returns an error listing the violations, if any.
	Audit bool

	// Lookahead is the number of tasks each device pipeline accepts ahead
	// of execution (stream double-buffering). Default 2.
	Lookahead int

	devices []*device
	// nics holds one comm.Link per rank: the send side of its broadcasts.
	nics []*comm.Link

	// Host-availability index: when the graph implements DataBounder the
	// dense per-(rank,data) table is used (one flat slice, -1 = absent);
	// otherwise the map fallback. The dense form removes a map lookup per
	// staged input — the hottest read on the phantom scale path.
	hostAvail    map[hostKey]float64
	hostDense    []float64
	hostDenseBuf []float64 // retained across runs to avoid regrowth
	hostBound    int
	pending      []int32
	events       []event
	specFree     []*TaskSpec
	seq          int64
	now          float64
	succBuf      []int
	done         int
	dirtyDevs    []int
	// fatalErr is the first malformed-graph error (see fail); Run stops on it.
	fatalErr error

	// bodies runs the current run's numeric bodies (nil until one commits);
	// bodyErr is what the last run's reported.
	bodies  *bodyExec
	bodyErr error

	schedule []ScheduledTask

	// observability: the schedule digest and audit violations.
	digest    obs.Digest
	auditViol []string

	stats Stats
}

// New prepares an engine for one run of g on plat.
func New(plat *Platform, g Graph) *Engine {
	return &Engine{plat: plat, g: g, Lookahead: 2}
}

// Graph returns the task system the engine was built for.
func (e *Engine) Graph() Graph { return e.g }

// Run executes the task system to completion and returns the run's
// statistics — on every path only once each numeric body it started has
// returned; a body's failure is not a run error (see BodyErr). Malformed
// graphs (invalid device assignments, inputs with no host copy, broken
// in-degree accounting) abort the run with a *GraphError;
// dependency cycles leave tasks unexecuted and are reported as a plain
// error. With Audit enabled, invariant violations are reported as an error
// after the run.
func (e *Engine) Run() (Stats, error) {
	if e.Audit {
		e.Trace = true // the energy-conservation check needs the intervals
	}
	n := e.g.NumTasks()
	e.hostAvail, e.hostDense, e.hostBound = nil, nil, 0
	if b, ok := e.g.(DataBounder); ok {
		// Cap the dense tables' footprint; graphs with huge sparse id
		// spaces fall back to the maps.
		if bound := b.DataIDBound(); bound >= 0 &&
			bound*int64(e.plat.Ranks) <= 1<<28 && bound*int64(e.plat.NumDevices()) <= 1<<28 {
			e.hostBound = int(bound)
			need := e.hostBound * e.plat.Ranks
			if cap(e.hostDenseBuf) < need {
				e.hostDenseBuf = make([]float64, need)
			}
			e.hostDense = e.hostDenseBuf[:need]
			for i := range e.hostDense {
				e.hostDense[i] = hostAbsent
			}
		}
	}
	if e.hostDense == nil {
		e.hostAvail = make(map[hostKey]float64)
	}
	e.devices = make([]*device, e.plat.NumDevices())
	for i := range e.devices {
		e.devices[i] = newDevice(i, e.plat.RankOfDevice(i), e.plat.Node.GPU, e.Trace, e.hostBound)
	}
	e.nics = make([]*comm.Link, e.plat.Ranks)
	for r := range e.nics {
		e.nics[r] = comm.NewLink(fmt.Sprintf("rank%d/nic", r), e.plat.Node.NICLink(), e.Trace)
	}
	if cap(e.pending) >= n {
		e.pending = e.pending[:n]
	} else {
		e.pending = make([]int32, n)
	}
	e.events = e.events[:0]
	e.now, e.seq, e.done = 0, 0, 0
	e.stats = Stats{}
	e.schedule = e.schedule[:0]
	e.digest = obs.Digest{}
	e.auditViol = e.auditViol[:0]
	e.fatalErr, e.bodyErr = nil, nil
	defer func() {
		if e.bodies != nil {
			e.bodyErr = e.bodies.finish()
			e.bodies = nil
		}
	}()

	e.g.InitialData(func(d DataID, rank int) {
		e.setHostAvail(rank, d, 0)
	})

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
		return Stats{}, e.fatalErr
	}

	for len(e.events) > 0 {
		ev := e.popEvent()
		e.now = ev.at
		e.complete(&ev)
		if e.fatalErr != nil {
			return Stats{}, e.fatalErr
		}
	}

	if e.done != n {
		return Stats{}, fmt.Errorf("runtime: %d of %d tasks never became ready (dependency cycle or missing data)", n-e.done, n)
	}
	e.finalizeStats()
	if e.Audit {
		e.auditFinal()
		if len(e.auditViol) > 0 {
			return e.stats, fmt.Errorf("runtime: audit found %d invariant violation(s): %v", len(e.auditViol), e.auditViol)
		}
	}
	return e.stats, nil
}

// takeSpec fetches a TaskSpec from the freelist (or allocates one).
func (e *Engine) takeSpec() *TaskSpec {
	if n := len(e.specFree); n > 0 {
		spec := e.specFree[n-1]
		e.specFree = e.specFree[:n-1]
		return spec
	}
	// Freelist warm-up: allocates only until the steady-state population exists.
	return &TaskSpec{}
}

// enqueueReady materializes task id's spec from the freelist and pushes it
// onto its device's ready queue.
func (e *Engine) enqueueReady(id int) int {
	spec := e.takeSpec()
	e.g.Spec(id, spec)
	spec.ID = id
	if spec.Device < 0 || spec.Device >= len(e.devices) {
		e.fail(&GraphError{Task: id, Msg: fmt.Sprintf("assigned to invalid device %d", spec.Device)})
		e.specFree = append(e.specFree, spec)
		return 0
	}
	d := e.devices[spec.Device]
	d.ready.push(spec)
	return d.id
}

// tryCommit feeds the device's stream pipeline up to the lookahead depth.
func (e *Engine) tryCommit(d *device) {
	for e.fatalErr == nil && d.committed < e.Lookahead && d.ready.Len() > 0 {
		e.commit(d, d.ready.pop())
	}
}

// commit stages a task's data onto the device and schedules its execution.
func (e *Engine) commit(d *device, spec *TaskSpec) {
	stagingEnd := e.now
	var sink evictSink
	var stagedBytes int64

	// stage captures commit-local tallies and never escapes commit, so the
	// closure stays off the heap.
	stage := func(data DataID, bytes int64, wp prec.Precision, isOutput bool) {
		stagedBytes += bytes
		if entry := d.touch(data); entry != nil {
			d.pin(data)
			d.stats.LRUHits++
			if isOutput {
				entry.hostCopy = false // it is about to be overwritten
			}
			return
		}
		d.stats.LRUMisses++
		avail, ok := e.lookupHostAvail(d.rank, data)
		if !ok {
			if isOutput {
				// Fresh output with no prior contents: allocate only.
				d.insert(data, bytes, wp, false, e.now, &sink)
				d.pin(data)
				return
			}
			e.fail(&GraphError{Task: spec.ID, Msg: fmt.Sprintf("input %d not available at rank %d", data, d.rank)})
			return
		}
		start := d.h2d.StartAfter(math.Max(avail, e.now))
		dur := d.h2d.Time(bytes)
		end := d.h2d.Occupy(start, dur, bytes)
		d.stats.BytesH2D += bytes
		e.stats.H2DByPrec[wp] += bytes
		d.stats.TransferTime += dur
		d.stats.DynEnergy += d.spec.TransferW * dur
		if end > stagingEnd {
			stagingEnd = end
		}
		d.insert(data, bytes, wp, !isOutput, e.now, &sink)
		d.pin(data)
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
	e.drainWritebacks(d, &sink)
	if e.Audit {
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
	dynW := d.spec.DynPower(spec.Prec)
	d.stats.DynEnergy += dynW*kernelDur + convPowerFrac*(d.spec.TDP-d.spec.IdleW)*convDur
	if d.trace {
		// Conversion and kernel windows carry their own power levels so the
		// traced intervals integrate exactly to the energy accrued above.
		if convDur > 0 {
			d.convIntervals = append(d.convIntervals, Interval{Start: start, End: start + convDur, Power: convPowerFrac * (d.spec.TDP - d.spec.IdleW)})
		}
		if end > start+convDur {
			d.busyIntervals = append(d.busyIntervals, Interval{Start: start + convDur, End: end, Power: dynW})
		}
		e.schedule = append(e.schedule, ScheduledTask{
			ID: spec.ID, Kind: spec.Kind, Device: spec.Device, Prec: spec.Prec, Start: start, End: end,
		})
	}
	e.digest.WriteString(string(spec.Kind))
	e.digest.WriteInt64(int64(spec.Device))
	e.digest.WriteFloat64(start)
	e.digest.WriteFloat64(end)
	e.digest.WriteInt64(stagedBytes)

	if spec.Body != nil || e.bodies != nil {
		if e.bodies == nil {
			e.startBodies()
		}
		e.bodies.commit(spec.ID, spec.Priority, spec.Body)
	}
	e.seq++
	e.pushEvent(event{at: end, seq: e.seq, spec: spec})
}

// startBodies creates the body executor at the first commit that carries a
// body, so phantom runs never pay for it. The tasks committed before had
// none, which counts as returned: any other task waits for its pending
// predecessors less those in flight, and for its own commit.
func (e *Engine) startBodies() {
	x := newBodyExec(e.g, len(e.pending))
	for id, p := range e.pending {
		x.wait[id] = p + 1
	}
	for i := range e.events {
		e.succBuf = e.g.Successors(e.events[i].spec.ID, e.succBuf[:0])
		for _, s := range e.succBuf {
			x.wait[s]--
		}
	}
	e.bodies = x
}

// BodyErr returns the numeric failure of the last Run: the error of the
// lowest-numbered task whose body failed (its descendants were skipped).
func (e *Engine) BodyErr() error { return e.bodyErr }

// convPowerFrac is the fraction of the dynamic power range a datatype
// conversion kernel draws (memory-bound, low arithmetic intensity).
const convPowerFrac = 0.25

// drainWritebacks turns evicted dirty tiles into D2H transfers and restores
// their host copies.
func (e *Engine) drainWritebacks(d *device, sink *evictSink) {
	for _, wb := range sink.writebacks {
		start := d.d2h.StartAfter(e.now)
		dur := d.d2h.Time(wb.bytes)
		end := d.d2h.Occupy(start, dur, wb.bytes)
		d.stats.BytesD2H += wb.bytes
		e.stats.D2HByPrec[wb.prec] += wb.bytes
		d.stats.TransferTime += dur
		d.stats.DynEnergy += d.spec.TransferW * dur
		e.setHostAvail(d.rank, wb.data, end)
	}
	sink.writebacks = sink.writebacks[:0]
}

// complete processes a task's completion event in virtual time: publishes
// the output and releases successors. It does not wait for the numeric
// body — the body executor orders real execution, by dataflow.
func (e *Engine) complete(ev *event) {
	spec := ev.spec
	d := e.devices[spec.Device]

	for i := range spec.Inputs {
		d.unpin(spec.Inputs[i].Data)
	}
	if spec.Output.Data >= 0 {
		d.unpin(spec.Output.Data)
	}

	if p := spec.Publish; p != nil {
		e.publish(d, spec, p)
	}

	e.done++
	d.committed--
	e.stats.Tasks++
	e.stats.TotalFlops += spec.Flops

	e.succBuf = e.g.Successors(spec.ID, e.succBuf[:0])
	e.dirtyDevs = e.dirtyDevs[:0]
	e.dirtyDevs = append(e.dirtyDevs, d.id)
	d.dirty = true
	for _, s := range e.succBuf {
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
func (e *Engine) publish(d *device, spec *TaskSpec, p *PublishSpec) {
	t := e.now
	if p.ConvertElems > 0 {
		// Sender-side conversion on the producer's compute stream.
		dur := d.spec.ConvertTime(p.ConvertElems, p.ConvFrom, p.ConvTo)
		start := math.Max(d.computeFree, t)
		d.computeFree = start + dur
		t = start + dur
		d.stats.BusyTime += dur
		d.stats.DynEnergy += convPowerFrac * (d.spec.TDP - d.spec.IdleW) * dur
		d.stats.ConvertKernels++
		e.stats.SenderConversions++
		if d.trace {
			d.convIntervals = append(d.convIntervals, Interval{Start: start, End: t, Power: convPowerFrac * (d.spec.TDP - d.spec.IdleW)})
		}
	}
	// D2H of the wire representation.
	start := d.d2h.StartAfter(t)
	dur := d.d2h.Time(p.WireBytes)
	hostAt := d.d2h.Occupy(start, dur, p.WireBytes)
	d.stats.BytesD2H += p.WireBytes
	e.stats.D2HByPrec[p.WirePrec] += p.WireBytes
	d.stats.TransferTime += dur
	d.stats.DynEnergy += d.spec.TransferW * dur
	e.setHostAvail(d.rank, spec.Output.Data, hostAt)
	if entry := d.entry(spec.Output.Data); entry != nil {
		entry.hostCopy = true
	}

	if n := len(p.RemoteRanks); n > 0 {
		// Binomial-tree broadcast: the root sends once, then every holder
		// forwards in parallel — one hop of NIC occupancy at the sender,
		// every receiver served after ceil(log2(n+1)) hops.
		nic := e.nics[d.rank]
		hop := nic.Time(p.WireBytes)
		nstart := nic.StartAfter(hostAt)
		nic.Occupy(nstart, hop, p.WireBytes)
		arrive := nstart + hop*math.Ceil(math.Log2(float64(n)+1))
		for _, rr := range p.RemoteRanks {
			e.setHostAvail(rr, spec.Output.Data, arrive)
			e.stats.BytesNet += p.WireBytes
			e.stats.NetByPrec[p.WirePrec] += p.WireBytes
		}
	}
}
