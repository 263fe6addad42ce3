// Package plan splits the engine's work into a reusable compiled plan and a
// cheap numeric replay pass — the MLE workload's biggest wall-clock lever
// (ROADMAP): every likelihood evaluation factorizes the *same* tile DAG on
// the same platform, so the discrete-event simulation (task ordering, device
// placement, link bookings, broadcast shapes, conversion decisions) can be
// paid once and re-used across iterations, Monte-Carlo replicas and
// parameter sweeps.
//
// A Plan freezes two things from one engine run:
//
//   - the virtual-time outcome (runtime.Stats, including the FNV-1a schedule
//     digest, and the traced ScheduledTask timeline);
//   - a per-task signature of every schedule-relevant spec field, which is
//     what incremental invalidation diffs when the precision map changes.
//
// Replay runs the numeric bodies of a fresh graph in dataflow order
// (runtime.RunBodies — a live run's executor without the event loop). The
// numerics depend on nothing else, so a replay produces the bit-identical
// factor — on a non-SPD matrix the same failure and partial factor — while
// the frozen Stats stand in for the O(n log n) event-heap simulation.
// Invalidation is deliberately conservative: timing is coupled globally
// through device and link contention, so a precision change triggers a full
// recompile — what is incremental is the dirty-closure analysis proving
// *which* tasks could have changed (and that none outside the closure did).
package plan

import (
	"fmt"

	"geompc/internal/obs"
	"geompc/internal/runtime"
)

// Plan is one compiled schedule, reusable for any graph with the same shape
// signature and precision signature. A Plan is immutable once Compile
// returns: Replay and Invalidate only read it, so one Plan may serve any
// number of concurrent replays (each builds its own graph) — the
// property Cache's concurrency contract leans on.
type Plan struct {
	// Sig is the caller-supplied shape signature (platform, tiling,
	// strategy, policy, topology — everything except the
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

	// specSigs[id] hashes every schedule-relevant field of task id's spec.
	specSigs []uint64
}

// Compile runs eng — an engine already configured for its graph (policy,
// topology, lookahead, audit) — once: a full simulation, numeric bodies and
// all, and returns the reusable plan (eng.BodyErr() is that run's numeric
// failure). sig and precSig identify what it is valid for.
func Compile(eng *runtime.Engine, sig, precSig uint64) (*Plan, error) {
	g := eng.Graph()
	eng.Trace = true // the plan freezes the traced timeline
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return &Plan{
		Sig: sig, PrecSig: precSig, NumTasks: g.NumTasks(),
		Stats:    stats,
		Schedule: append([]runtime.ScheduledTask(nil), eng.ScheduleTrace()...),
		Metrics:  eng.Metrics(),
		specSigs: SpecSignatures(g),
	}, nil
}

// Replay re-executes only the numeric bodies of g, in dataflow order, and
// hands back the compiled Stats untouched. The graph must have the compiled
// one's task count and — the caller's responsibility — its shape and
// precision signatures; only the numeric tile contents may differ.
func (p *Plan) Replay(g runtime.Graph) (Outcome, error) {
	if n := g.NumTasks(); n != p.NumTasks {
		return Outcome{}, fmt.Errorf("plan: graph has %d tasks, plan compiled for %d", n, p.NumTasks)
	}
	return Outcome{Stats: p.Stats, Plan: p, Err: runtime.RunBodies(g)}, nil
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
