package runtime

import (
	"geompc/internal/hw"
	"geompc/internal/prec"
)

// ScheduledTask records one task's placement in the simulated schedule
// (recorded only when Trace is enabled).
type ScheduledTask struct {
	ID         int
	Kind       hw.KernelKind
	Device     int
	Prec       prec.Precision
	Start, End float64
}

// Stats aggregates a run.
type Stats struct {
	// Makespan is the virtual time from start to the last task completion.
	Makespan float64
	// TotalFlops across all tasks.
	TotalFlops float64
	// Performance in flop/s (TotalFlops / Makespan).
	Flops float64
	// Data motion totals.
	BytesH2D, BytesD2H, BytesNet int64
	// The same data motion by the element format the bytes travelled in
	// (InputSpec.WirePrec, OutputSpec.Prec, PublishSpec.WirePrec), indexed
	// by prec.Precision: each array sums to its link's total above.
	H2DByPrec, D2HByPrec, NetByPrec [prec.Count]int64
	// Conversion counts: sender-side (STC) and receiver-side (TTC).
	SenderConversions, ReceiverConversions int
	// Energy in joules: dynamic compute + transfer + idle over makespan,
	// summed over all devices.
	Energy float64
	// AvgPower = Energy / Makespan.
	AvgPower float64
	// Tasks executed.
	Tasks int
	// ScheduleDigest is an FNV-1a hash over every committed task's
	// (kind, device, start, end, bytes) record. Equal digests prove two
	// runs produced bit-identical schedules — across GOMAXPROCS settings
	// and plan replays (task ids are not hashed: they are the graph's own
	// numbering, not part of the simulated timeline).
	ScheduleDigest uint64
	// Per-device aggregates.
	Devices []DeviceStats
}

func (e *Engine) finalizeStats() {
	var makespan float64
	for _, d := range e.devices {
		if d.computeFree > makespan {
			makespan = d.computeFree
		}
	}
	e.stats.Makespan = makespan
	if makespan > 0 {
		e.stats.Flops = e.stats.TotalFlops / makespan
	}
	var energy float64
	for _, d := range e.devices {
		energy += d.stats.DynEnergy + d.spec.IdleW*makespan
		e.stats.BytesH2D += d.stats.BytesH2D
		e.stats.BytesD2H += d.stats.BytesD2H
		e.stats.Devices = append(e.stats.Devices, d.stats)
	}
	e.stats.Energy = energy
	if makespan > 0 {
		e.stats.AvgPower = energy / makespan
	}
	e.stats.ScheduleDigest = e.digest.Sum()
}

// AuditViolations returns the invariant violations collected during an
// audited run (nil when clean or when Audit was off).
func (e *Engine) AuditViolations() []string { return e.auditViol }

// DeviceTrace returns device i's traced compute-stream intervals (kernels
// and datatype conversions, each carrying its dynamic power draw) and
// host-link transfer intervals (H2D staging, D2H publishes and writebacks),
// recorded during a Trace-enabled run. Slices are rebuilt views; the
// underlying intervals stay valid until the next Run.
func (e *Engine) DeviceTrace(i int) (busy, xfer []Interval) {
	d := e.devices[i]
	busy = make([]Interval, 0, len(d.busyIntervals)+len(d.convIntervals))
	busy = append(append(busy, d.busyIntervals...), d.convIntervals...)
	h2d, d2h := d.h2d.Intervals(), d.d2h.Intervals()
	xfer = make([]Interval, 0, len(h2d)+len(d2h))
	xfer = append(append(xfer, h2d...), d2h...)
	return busy, xfer
}

// StreamIntervals exposes device i's per-stream traces individually:
// kernel execution, datatype conversions (both on the compute stream), and
// the H2D/D2H host-link directions. Valid until the next Run.
func (e *Engine) StreamIntervals(i int) (kernel, conv, h2d, d2h []Interval) {
	d := e.devices[i]
	return d.busyIntervals, d.convIntervals, d.h2d.Intervals(), d.d2h.Intervals()
}

// NICIntervals returns the traced send-side NIC occupancy of a rank's
// broadcasts (first hop per publish). Nil when tracing was off.
func (e *Engine) NICIntervals(rank int) []Interval {
	if !e.Trace || e.nics == nil {
		return nil
	}
	return e.nics[rank].Intervals()
}

// ScheduleTrace returns the ordered task placements recorded during a
// Trace-enabled run (commit order; sort by Start for a timeline).
func (e *Engine) ScheduleTrace() []ScheduledTask { return e.schedule }
