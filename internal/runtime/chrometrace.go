package runtime

import (
	"fmt"
	"io"

	"geompc/internal/obs"
)

// WriteChromeTrace renders the last Trace-enabled run as a Chrome
// trace-event (Perfetto-loadable) JSON timeline: one process per device,
// with threads for the compute, conversion, H2D and D2H streams, plus one
// process per rank's NIC. Kernel spans are colored by execution precision.
// name, when non-nil, supplies a human-readable label for task id (e.g.
// "GEMM(4,1,2)"); otherwise spans are labeled by kernel kind and id.
func (e *Engine) WriteChromeTrace(w io.Writer, name func(id int) string) error {
	if !e.Trace || e.devices == nil {
		return fmt.Errorf("runtime: no trace recorded (set Engine.Trace before Run)")
	}
	tr := obs.NewTrace()
	tr.SetMeta("makespan_seconds", fmt.Sprintf("%g", e.stats.Makespan))
	tr.SetMeta("energy_joules", fmt.Sprintf("%g", e.stats.Energy))
	tr.SetMeta("schedule_digest", fmt.Sprintf("%016x", e.stats.ScheduleDigest))
	tr.SetMeta("sched_policy", e.policy.Name())
	tr.SetMeta("bcast_topology", e.topo.Name())

	const (
		tidCompute = 0
		tidConvert = 1
		tidH2D     = 2
		tidD2H     = 3
	)
	for _, d := range e.devices {
		pid := d.id
		tr.SetProcessName(pid, fmt.Sprintf("dev%d (%s, rank %d)", d.id, d.spec.Name, d.rank))
		tr.SetThreadName(pid, tidCompute, "compute")
		tr.SetThreadName(pid, tidConvert, "convert")
		tr.SetThreadName(pid, tidH2D, "H2D")
		tr.SetThreadName(pid, tidD2H, "D2H")
		for _, iv := range d.convIntervals {
			tr.Span(pid, tidConvert, "convert", iv.Start, iv.End, "generic_work",
				map[string]any{"watts": iv.Power})
		}
		for _, iv := range d.h2d.Intervals() {
			tr.Span(pid, tidH2D, fmt.Sprintf("H2D %d B", iv.Bytes), iv.Start, iv.End, "",
				map[string]any{"bytes": iv.Bytes, "watts": iv.Power})
		}
		for _, iv := range d.d2h.Intervals() {
			tr.Span(pid, tidD2H, fmt.Sprintf("D2H %d B", iv.Bytes), iv.Start, iv.End, "",
				map[string]any{"bytes": iv.Bytes, "watts": iv.Power})
		}
	}
	// Kernel spans come from the schedule trace so they carry task identity
	// and precision (the per-device busyIntervals only carry power).
	for _, st := range e.schedule {
		label := fmt.Sprintf("%s#%d", st.Kind, st.ID)
		if name != nil {
			label = name(st.ID)
		}
		tr.Span(st.Device, tidCompute, label, st.Start, st.End, obs.PrecisionColor(st.Prec.String()),
			map[string]any{"prec": st.Prec.String(), "task": st.ID})
	}
	for rank, nic := range e.nics {
		ivs := nic.Intervals()
		if len(ivs) == 0 {
			continue
		}
		pid := len(e.devices) + rank
		tr.SetProcessName(pid, fmt.Sprintf("rank%d NIC", rank))
		tr.SetThreadName(pid, 0, "send")
		for _, iv := range ivs {
			tr.Span(pid, 0, fmt.Sprintf("bcast %d B", iv.Bytes), iv.Start, iv.End, "",
				map[string]any{"bytes": iv.Bytes})
		}
	}
	return tr.WriteJSON(w)
}
