package runtime

import (
	"geompc/internal/hw"
	"geompc/internal/prec"
)

// ScheduledTask records one task's placement in the simulated schedule.
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
	// (kind name, device, start, end, staged bytes) record, the numbers as
	// little-endian 64-bit words (floats bit for bit). Equal digests prove two
	// runs produced bit-identical schedules — across GOMAXPROCS settings
	// and plan replays (task ids are not hashed: they are the graph's own
	// numbering, not part of the simulated timeline).
	ScheduleDigest uint64
	// Per-device aggregates.
	Devices []DeviceStats
	// Trace is the run's timeline, nil unless Options.Trace (or Audit) was
	// set.
	Trace *Trace
}

// Trace is the timeline of one traced run.
type Trace struct {
	// Tasks holds every task's placement, in commit order (sort by Start
	// for a timeline).
	Tasks []ScheduledTask
	// Devices holds each device's activity, indexed by global device.
	Devices []DeviceTrace
	// NICs holds each rank's send-side NIC occupancy: the first hop of
	// every broadcast it issued.
	NICs [][]Interval
}

// DeviceTrace is one device's traced activity. Kernel and Convert are the
// compute stream's kernel executions and datatype conversions, H2D and D2H
// the host-link transfers (staging, publishes and writebacks). Each
// interval carries its dynamic power draw: summed as power·duration with
// idle·makespan, the intervals of every device reproduce Stats.Energy.
type DeviceTrace struct {
	GPU                       string // the device's GPU model
	Rank                      int    // the rank owning it
	Kernel, Convert, H2D, D2H []Interval
}

func (e *engine) finalizeStats() {
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
		d.stats.TransferTime = d.h2d.busy + d.d2h.busy
		e.stats.Devices = append(e.stats.Devices, d.stats)
	}
	e.stats.Energy = energy
	if makespan > 0 {
		e.stats.AvgPower = energy / makespan
	}
	e.stats.ScheduleDigest = e.digest.Sum64()
	if e.opt.Trace {
		tr := &Trace{Tasks: e.schedule, Devices: make([]DeviceTrace, len(e.devices)), NICs: make([][]Interval, len(e.nics))}
		for i, d := range e.devices {
			tr.Devices[i] = DeviceTrace{GPU: d.spec.Name, Rank: d.rank,
				Kernel: d.busyIntervals, Convert: d.convIntervals, H2D: d.h2d.ivs, D2H: d.d2h.ivs}
		}
		for r, nic := range e.nics {
			tr.NICs[r] = nic.ivs
		}
		e.stats.Trace = tr
	}
}
