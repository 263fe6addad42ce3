// Package plan splits the engine's work into a reusable compiled plan and a
// cheap numeric replay pass — the MLE workload's biggest wall-clock lever
// (ROADMAP): every likelihood evaluation factorizes the *same* tile DAG on
// the same platform, so the discrete-event simulation (task ordering, device
// placement, link bookings, broadcast shapes, conversion decisions) can be
// paid once and re-used across iterations, Monte-Carlo replicas and
// parameter sweeps.
//
// A Plan freezes three things from one engine run:
//
//   - the interleaved commit/completion stream (runtime.PlanRecorder), which
//     encodes the exact synchronization order numeric bodies must observe;
//   - the virtual-time outcome (runtime.Stats, including the FNV-1a schedule
//     digest, and the traced ScheduledTask timeline);
//   - a per-task signature of every schedule-relevant spec field, which is
//     what incremental invalidation diffs when the precision map changes.
//
// Replay walks the stream against a fresh graph: each commit starts the
// task's numeric body on a worker pool, each completion joins it. Because
// the stream orders every producer's completion before any consumer's
// commit, replayed bodies observe the same dataflow order as the original
// run and produce the bit-identical factor, while the frozen Stats stand in
// for the O(n log n) event-heap simulation. Invalidation is deliberately
// conservative: timing is coupled globally through device and link
// contention, so a precision change triggers a full recompile — what is
// incremental is the dirty-closure analysis proving *which* tasks could
// have changed (and that none outside the closure did).
package plan

import (
	"fmt"

	"geompc/internal/obs"
	"geompc/internal/runtime"
)

// opComplete marks a stream entry as a completion; the low 31 bits carry
// the task id.
const opComplete = uint32(1) << 31

// Plan is one compiled schedule, reusable for any graph with the same shape
// signature and precision signature. A Plan is immutable once Compile
// returns: Replay and Invalidate only read it, so one Plan may serve any
// number of concurrent replays (each builds its own graph and pool) — the
// property Cache's concurrency contract leans on.
type Plan struct {
	// Sig is the caller-supplied shape signature (platform, tiling,
	// strategy, policy, topology, front-end — everything except the
	// precision map and the numeric data).
	Sig uint64
	// PrecSig is the precision-map signature the plan was compiled under
	// (precmap.Maps.Signature); replaying under a different map is unsound
	// and refused.
	PrecSig uint64
	// NumTasks of the compiled graph.
	NumTasks int
	// Stats is the frozen virtual-time outcome, including ScheduleDigest.
	Stats runtime.Stats
	// Schedule is the traced task timeline (commit order).
	Schedule []runtime.ScheduledTask
	// Metrics is the compile run's frozen metrics registry; replays hand it
	// back unchanged (a replay adds no engine work to measure).
	Metrics *obs.Registry

	// ops is the recorded commit/completion stream: 2·NumTasks entries,
	// task id with opComplete set on completions.
	ops []uint32
	// specSigs[id] hashes every schedule-relevant field of task id's spec.
	specSigs []uint64
}

// recorder accumulates the engine's commit/completion stream into a plan.
type recorder struct{ p *Plan }

func (r recorder) RecordCommit(id int)   { r.p.ops = append(r.p.ops, uint32(id)) }
func (r recorder) RecordComplete(id int) { r.p.ops = append(r.p.ops, uint32(id)|opComplete) }

// Compile runs eng — an engine already configured for its graph (policy,
// topology, lookahead, audit) — once: a full simulation, numeric bodies and
// all, and returns the reusable plan. sig and precSig identify what the
// plan is valid for (see Plan.Sig/PrecSig).
func Compile(eng *runtime.Engine, sig, precSig uint64) (*Plan, error) {
	g := eng.Graph()
	n := g.NumTasks()
	p := &Plan{Sig: sig, PrecSig: precSig, NumTasks: n, ops: make([]uint32, 0, 2*n)}
	eng.Trace = true // the plan freezes the traced timeline
	eng.Recorder = recorder{p}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}
	if len(p.ops) != 2*n {
		return nil, fmt.Errorf("plan: recorded %d stream entries for %d tasks (want %d)", len(p.ops), n, 2*n)
	}
	p.Stats = stats
	p.Schedule = append([]runtime.ScheduledTask(nil), eng.ScheduleTrace()...)
	p.Metrics = eng.Metrics()
	p.specSigs = SpecSignatures(g)
	return p, nil
}

// Replay re-executes only the numeric bodies of g against the frozen
// schedule: the recorded stream is walked once, starting each task's body
// at its commit and joining it at its completion, and the compiled Stats
// are returned untouched. The graph must have the same task count as the
// compiled one and — a front-end responsibility — the same shape and
// precision signatures; only the numeric tile contents may differ.
func (p *Plan) Replay(g runtime.Graph) (runtime.Stats, error) {
	if n := g.NumTasks(); n != p.NumTasks {
		return runtime.Stats{}, fmt.Errorf("plan: graph has %d tasks, plan compiled for %d", n, p.NumTasks)
	}
	if len(p.ops) != 2*p.NumTasks {
		return runtime.Stats{}, fmt.Errorf("plan: malformed stream: %d entries for %d tasks", len(p.ops), p.NumTasks)
	}
	rp := &replayPool{}
	defer rp.close()
	var spec runtime.TaskSpec
	replayOps(p.ops, g, &spec, rp)
	return p.Stats, nil
}

// replayOps is the replay inner loop: one pass over the recorded stream,
// re-materializing each committed task's spec into the single recycled
// record and driving the body pool. All allocation lives in the pool's
// start/await paths, which only run for tasks that carry numeric bodies —
// phantom replays execute this loop alone.
func replayOps(ops []uint32, g runtime.Graph, spec *runtime.TaskSpec, rp *replayPool) {
	for _, op := range ops {
		id := int(op &^ opComplete)
		if op&opComplete != 0 {
			rp.await(id)
			continue
		}
		g.Spec(id, spec)
		if spec.Body != nil {
			rp.start(id, spec.Body)
		}
	}
}

// SpecSignatures hashes every schedule-relevant field of every task spec:
// kind, device, precision, flops, priority, each input's wire format and
// conversion, the output footprint, and the publish shape including its
// broadcast targets. Bodies are excluded (they carry the numerics, not the
// schedule). Equal signatures for a task across two graphs mean the engine
// would treat the task identically — the soundness oracle of incremental
// invalidation.
func SpecSignatures(g runtime.Graph) []uint64 {
	n := g.NumTasks()
	sigs := make([]uint64, n)
	var spec runtime.TaskSpec
	for id := 0; id < n; id++ {
		g.Spec(id, &spec)
		var d obs.Digest
		d.WriteString(string(spec.Kind))
		d.WriteInt64(int64(spec.Device))
		d.WriteInt64(int64(spec.Prec))
		d.WriteFloat64(spec.Flops)
		d.WriteInt64(spec.Priority)
		d.WriteInt64(int64(len(spec.Inputs)))
		for i := range spec.Inputs {
			in := &spec.Inputs[i]
			d.WriteInt64(int64(in.Data))
			d.WriteInt64(in.WireBytes)
			d.WriteInt64(int64(in.WirePrec))
			d.WriteInt64(int64(in.ConvertElems))
			d.WriteInt64(int64(in.ConvFrom))
			d.WriteInt64(int64(in.ConvTo))
		}
		d.WriteInt64(int64(spec.Output.Data))
		d.WriteInt64(spec.Output.Bytes)
		d.WriteInt64(int64(spec.Output.Prec))
		if p := spec.Publish; p != nil {
			d.WriteInt64(p.WireBytes)
			d.WriteInt64(int64(p.WirePrec))
			d.WriteInt64(int64(p.ConvertElems))
			d.WriteInt64(int64(p.ConvFrom))
			d.WriteInt64(int64(p.ConvTo))
			d.WriteInt64(int64(len(p.RemoteRanks)))
			for _, r := range p.RemoteRanks {
				d.WriteInt64(int64(r))
			}
		} else {
			d.WriteInt64(-1)
		}
		sigs[id] = d.Sum()
	}
	return sigs
}
