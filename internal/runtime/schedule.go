package runtime

import (
	"geompc/internal/comm"
	"geompc/internal/sched"
)

// This file is the engine's bridge to the pluggable scheduling layer
// (internal/sched): policy/topology resolution at Run start, the read-only
// Machine view policies consult, placement of ready tasks, and the
// critical-path precomputation for policies that request it.

// resolveSched pins the run's policy and broadcast topology (defaulting to
// the historical FIFO + binomial pair), builds the shared ready-queue
// comparator, and performs whatever precomputation the policy's hints ask
// for. Called before any device (and its taskHeap) is created.
func (e *Engine) resolveSched() {
	e.policy = e.Policy
	if e.policy == nil {
		e.policy = sched.FIFO{}
	}
	e.topo = e.Bcast
	if e.topo == nil {
		e.topo = comm.Binomial{}
	}
	_, isFIFO := e.policy.(sched.FIFO)
	e.ord = heapOrder{pol: e.policy, fifo: isFIFO}
	hints := e.policy.Hints()
	if hints&sched.NeedCriticalPath != 0 {
		e.ord.cp = criticalPathLengths(e.g, e.ord.cp)
	} else {
		e.ord.cp = nil
	}
	e.placing = hints&sched.NeedPlacement != 0
}

// placeTask consults the policy for a ready task's device, gathering the
// task's data references into a reused scratch buffer. Results that leave
// the home rank (or the device range) are clamped back to the
// owner-computes home: host tile copies live per rank, so a cross-rank
// placement could not stage its inputs.
func (e *Engine) placeTask(spec *TaskSpec) int {
	home := spec.Device
	refs := e.refsBuf[:0]
	for i := range spec.Inputs {
		in := &spec.Inputs[i]
		refs = append(refs, sched.DataRef{Data: int64(in.Data), Bytes: in.WireBytes})
	}
	if spec.Output.Data >= 0 {
		refs = append(refs, sched.DataRef{Data: int64(spec.Output.Data), Bytes: spec.Output.Bytes})
	}
	e.refsBuf = refs
	dev := e.policy.Place(home, refs, machineView{e})
	if dev < 0 || dev >= len(e.devices) || e.devices[dev].rank != e.devices[home].rank {
		return home
	}
	return dev
}

// machineView adapts the engine to sched.Machine without allocating: it is
// a one-word value wrapping the engine pointer.
type machineView struct{ e *Engine }

func (m machineView) NumDevices() int  { return len(m.e.devices) }
func (m machineView) DevPerRank() int  { return m.e.plat.DevPerRank }
func (m machineView) RankOf(d int) int { return m.e.plat.RankOfDevice(d) }

func (m machineView) ResidentBytes(dev int, data int64) int64 {
	if ent := m.e.devices[dev].entry(DataID(data)); ent != nil {
		return ent.bytes
	}
	return 0
}

// criticalPathLengths computes, for every task, the length (in tasks,
// including itself) of the longest dependency chain below it: a Kahn
// topological pass forward, then a reverse sweep taking 1 + max over
// successors. O(V+E), run once per Run, and only for policies that declare
// NeedCriticalPath. Tasks on a dependency cycle keep length 0; the event
// loop reports the cycle as unexecuted tasks either way.
func criticalPathLengths(g Graph, buf []int64) []int64 {
	n := g.NumTasks()
	cp := buf
	if cap(cp) >= n {
		cp = cp[:n]
	} else {
		cp = make([]int64, n)
	}
	for i := range cp {
		cp[i] = 0
	}
	indeg := make([]int32, n)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		indeg[i] = int32(g.NumPredecessors(i))
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	var succ []int
	for head := 0; head < len(order); head++ {
		succ = g.Successors(order[head], succ[:0])
		for _, s := range succ {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		succ = g.Successors(id, succ[:0])
		var best int64
		for _, s := range succ {
			if cp[s] > best {
				best = cp[s]
			}
		}
		cp[id] = best + 1
	}
	return cp
}
