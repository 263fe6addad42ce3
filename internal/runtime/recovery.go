package runtime

import "fmt"

// This file implements the engine's fault delivery and recovery machinery.
// Faults arrive as events in the regular discrete-event heap (pushed at Run
// start by armFaults), so they interleave with task completions in a total,
// reproducible order: a fault and a completion at the same virtual time are
// ordered by sequence number, and fault events are pushed first.
//
// Recovery from a device failure proceeds in five deterministic steps (see
// killDevice): abort the dead device's in-flight tasks, reconstruct its
// lost dirty tiles on same-rank survivors by lineage re-execution, drop its
// residency, re-route its aborted and queued tasks, and refill the
// survivors' pipelines. All replayed/retried work flows through the normal
// commit path, so it is digested, traced, audited and energy-accounted like
// any other work — the extra time and joules a failure costs are first-class
// outputs of the run.

// faultMark records a delivered fault for the Chrome trace export.
type faultMark struct {
	kind   FaultKind
	device int
	at     float64
}

// armFaults resolves the injector's plan for this run. The engine arms
// itself only when the plan contains at least one event; a nil injector or
// an empty plan leaves the run bit-identical to one without fault support.
func (e *Engine) armFaults() error {
	if e.injector == nil {
		return nil
	}
	plan := FaultPlan(e.injector.Plan(len(e.devices)))
	if len(plan) == 0 {
		return nil
	}
	if err := plan.Validate(len(e.devices)); err != nil {
		return err
	}
	e.armed = true
	e.lineageG, _ = e.g.(LineageGraph)
	if e.orphan == nil {
		e.orphan = make(map[int]chan struct{})
	} else {
		for k := range e.orphan {
			delete(e.orphan, k)
		}
	}
	if e.lineage == nil {
		e.lineage = make(map[DataID][]int)
	} else {
		for k := range e.lineage {
			e.lineage[k] = e.lineage[k][:0]
		}
	}
	for _, f := range plan {
		if f.Kind == FaultSlow {
			d := e.devices[f.Device]
			d.slows = append(d.slows, slowWindow{from: f.From, to: f.To, factor: f.Factor})
			continue
		}
		// Fault events are pushed before any task commits, so their
		// sequence numbers precede every completion's: a fault at time t
		// is always processed before a completion at the same t.
		e.seq++
		fv := f
		e.pushEvent(event{at: f.At, seq: e.seq, fault: &fv})
	}
	return nil
}

// applyFault dispatches one fault event at the current virtual time.
func (e *Engine) applyFault(f *FaultEvent) {
	switch f.Kind {
	case FaultKill:
		e.killDevice(f)
	case FaultTransient:
		e.transientFault(f)
	}
}

// takeSpec fetches a TaskSpec from the freelist (or allocates one).
//
//geompc:hot
func (e *Engine) takeSpec() *TaskSpec {
	if n := len(e.specFree); n > 0 {
		spec := e.specFree[n-1]
		e.specFree = e.specFree[:n-1]
		return spec
	}
	return &TaskSpec{} //geompc:nolint hotalloc freelist warm-up: allocates only until the steady-state population exists
}

// failoverKey picks the deterministic re-placement key for a task: its
// output datum when it has one — which keeps an accumulation chain (and its
// replays) co-located on one survivor — otherwise the task id.
func failoverKey(spec *TaskSpec) int64 {
	if spec.Output.Data >= 0 {
		return int64(spec.Output.Data)
	}
	return int64(spec.ID)
}

// failoverFor returns the surviving same-rank device that inherits work
// keyed by key from the failed device orig, or -1 when the whole rank is
// dead (host copies live per rank, so work cannot migrate across ranks).
// The pick itself is the policy's: every front-end and the recovery path
// route through the same sched.Policy.Failover.
func (e *Engine) failoverFor(orig *device, key int64) int {
	base := orig.rank * e.plat.DevPerRank
	e.aliveBuf = e.aliveBuf[:0]
	for i := 0; i < e.plat.DevPerRank; i++ {
		if dd := e.devices[base+i]; dd.deadAt < 0 {
			e.aliveBuf = append(e.aliveBuf, dd.id)
		}
	}
	if len(e.aliveBuf) == 0 {
		return -1
	}
	return e.policy.Failover(key, e.aliveBuf)
}

// reroute re-places a task from a failed device onto a survivor's ready
// queue.
func (e *Engine) reroute(spec *TaskSpec) {
	orig := e.devices[spec.Device]
	t := e.failoverFor(orig, failoverKey(spec))
	if t < 0 {
		e.fatalErr = errUnrecoverable(spec.ID, orig.rank)
		e.specFree = append(e.specFree, spec)
		return
	}
	spec.Device = t
	e.devices[t].ready.push(spec)
}

// errUnrecoverable reports a rank losing its last device: with no peer
// holding the rank's host memory, its tasks cannot migrate.
func errUnrecoverable(taskID, rank int) error {
	return fmt.Errorf("runtime: task %d unrecoverable: rank %d has no surviving device", taskID, rank) //geompc:nolint hotalloc fatal-path error construction; the run is over when this allocates
}

// killDevice handles a permanent device failure at the current virtual
// time.
func (e *Engine) killDevice(f *FaultEvent) {
	d := e.devices[f.Device]
	if d.deadAt >= 0 {
		return // already dead
	}
	d.deadAt = e.now
	e.stats.DeviceFailures++
	e.faultLog = append(e.faultLog, faultMark{kind: FaultKill, device: d.id, at: e.now})
	e.digest.WriteString("kill")
	e.digest.WriteInt64(int64(d.id))
	e.digest.WriteFloat64(e.now)

	// 1. Abort the device's in-flight tasks: remove their completion events
	// from the heap, release their pins, and stash their already-running
	// numeric bodies for the re-commit to join (bodies run exactly once).
	e.abortBuf = e.abortBuf[:0]
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.fault != nil || ev.spec.Device != d.id {
			kept = append(kept, ev)
			continue
		}
		spec := ev.spec
		for i := range spec.Inputs {
			d.unpin(spec.Inputs[i].Data)
		}
		if spec.Output.Data >= 0 {
			d.unpin(spec.Output.Data)
		}
		e.inflight--
		d.committed--
		if ev.replay {
			// An in-flight replay died with the device; the dirty-tile scan
			// below re-replays the whole chain on the next survivor.
			e.specFree = append(e.specFree, spec)
			continue
		}
		if ev.result != nil {
			e.orphan[spec.ID] = ev.result
		}
		e.abortBuf = append(e.abortBuf, spec)
	}
	e.events = kept
	e.heapifyEvents()

	// 2. Reconstruct the tiles that existed only on the dead device. A tile
	// with a current host copy needs nothing now (consumers re-fetch it);
	// a dirty tile is rebuilt by re-executing its lineage — the writers
	// since its last host sync — on the survivor that inherits the datum.
	// The LRU list gives a deterministic iteration order.
	e.inRecovery = true
	for entry := d.lruHead; entry != nil && e.fatalErr == nil; entry = entry.next {
		chain := e.lineage[entry.data]
		if entry.hostCopy || len(chain) == 0 {
			continue
		}
		t := e.failoverFor(d, int64(entry.data))
		if t < 0 {
			e.fatalErr = errUnrecoverable(chain[0], d.rank)
			break
		}
		td := e.devices[t]
		for _, id := range chain {
			spec := e.takeSpec()
			e.g.Spec(id, spec)
			spec.ID = id
			spec.Device = t
			if !e.replayable(td, spec) {
				e.specFree = append(e.specFree, spec)
				break
			}
			e.commit(td, spec)
		}
	}
	e.inRecovery = false

	// 3. Device memory is gone: drop every resident entry.
	for entry := d.lruHead; entry != nil; {
		next := entry.next
		d.delEntry(entry.data)
		entry.prev, entry.next = nil, nil
		d.entryFree = append(d.entryFree, entry)
		entry = next
	}
	d.lruHead, d.lruTail = nil, nil
	d.used = 0

	// 4. Re-route the dead device's queued and aborted tasks onto same-rank
	// survivors (deterministically keyed by their output datum).
	for d.ready.Len() > 0 && e.fatalErr == nil {
		e.reroute(d.ready.pop())
	}
	for _, spec := range e.abortBuf {
		if e.fatalErr != nil {
			e.specFree = append(e.specFree, spec)
			continue
		}
		e.reroute(spec)
	}
	e.abortBuf = e.abortBuf[:0]
	d.committed = 0

	// 5. Refill the survivors' pipelines with the migrated work.
	if e.fatalErr == nil {
		for _, dd := range e.devices {
			e.tryCommit(dd)
		}
	}
}

// replayable validates a lineage replay before committing it: every input
// must be reachable from the rank's host memory (true by construction for
// graphs whose cross-tile producers publish, like the Cholesky PTG/DTD),
// and — when the graph declares its writers (LineageGraph) under audit —
// the replayed task must be one of the datum's declared writers.
func (e *Engine) replayable(td *device, spec *TaskSpec) bool {
	for i := range spec.Inputs {
		data := spec.Inputs[i].Data
		if td.entry(data) != nil {
			continue
		}
		if _, ok := e.lookupHostAvail(td.rank, data); !ok {
			e.violate("replay of task %d on dev%d: input %d unreachable from rank %d host memory",
				spec.ID, td.id, data, td.rank)
			return false
		}
	}
	if e.Audit && e.lineageG != nil && spec.Output.Data >= 0 {
		writers := e.lineageG.Writers(spec.Output.Data, e.succBuf[:0])
		found := false
		for _, w := range writers {
			if w == spec.ID {
				found = true
				break
			}
		}
		e.succBuf = writers[:0]
		if !found {
			e.violate("replay of task %d: not a declared writer of datum %d", spec.ID, spec.Output.Data)
		}
	}
	return true
}

// transientFault retries the most recently committed in-flight task on the
// device: its completion moves back by Backoff (idle) plus one full
// re-execution, with the retry window's energy accounted at the task's
// dynamic power. A fault landing on an idle or dead device hits nothing.
func (e *Engine) transientFault(f *FaultEvent) {
	e.stats.TransientFaults++
	d := e.devices[f.Device]
	if d.deadAt >= 0 {
		return
	}
	e.faultLog = append(e.faultLog, faultMark{kind: FaultTransient, device: d.id, at: e.now})
	best := -1
	for i := range e.events {
		ev := &e.events[i]
		if ev.fault != nil || ev.spec.Device != f.Device {
			continue
		}
		if best < 0 || ev.at > e.events[best].at ||
			(ev.at == e.events[best].at && ev.seq > e.events[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return
	}
	ev := &e.events[best]
	retryDur := ev.at - ev.start
	if retryDur < 0 {
		retryDur = 0
	}
	retryStart := ev.at + f.Backoff
	ev.at = retryStart + retryDur
	dynW := d.spec.DynPower(ev.spec.Prec)
	d.stats.BusyTime += retryDur
	d.stats.DynEnergy += dynW * retryDur
	if d.trace {
		if retryDur > 0 {
			d.busyIntervals = append(d.busyIntervals, Interval{Start: retryStart, End: ev.at, Power: dynW})
		}
		e.schedule = append(e.schedule, ScheduledTask{
			ID: ev.spec.ID, Kind: ev.spec.Kind, Device: d.id, Prec: ev.spec.Prec,
			Start: retryStart, End: ev.at, Recovery: true,
		})
	}
	if d.computeFree < ev.at {
		d.computeFree = ev.at
	}
	e.stats.RetriedTasks++
	e.digest.WriteString("retry")
	e.digest.WriteInt64(int64(d.id))
	e.digest.WriteFloat64(ev.at)
	e.heapifyEvents()
}
