package runtime

import (
	"fmt"
	"io"

	"geompc/internal/obs"
)

// WriteChromeTrace renders the timeline of a traced run's record st as a
// Chrome trace-event (Perfetto-loadable) JSON timeline: one process per
// device, with threads for the compute, conversion, H2D and D2H streams,
// plus one process per rank's NIC. Kernel spans are colored by execution
// precision. name, when non-nil, supplies a human-readable label for task
// id (e.g. "GEMM(4,1,2)"); otherwise spans are labeled by kernel kind and
// id.
func WriteChromeTrace(w io.Writer, st Stats, name func(id int) string) error {
	if st.Trace == nil {
		return fmt.Errorf("runtime: no trace recorded (set Options.Trace)")
	}
	tr := obs.NewTrace()
	tr.SetMeta("makespan_seconds", fmt.Sprintf("%g", st.Makespan))
	tr.SetMeta("energy_joules", fmt.Sprintf("%g", st.Energy))
	tr.SetMeta("schedule_digest", fmt.Sprintf("%016x", st.ScheduleDigest))

	const (
		tidCompute = 0
		tidConvert = 1
		tidH2D     = 2
		tidD2H     = 3
	)
	for pid, d := range st.Trace.Devices {
		tr.SetProcessName(pid, fmt.Sprintf("dev%d (%s, rank %d)", pid, d.GPU, d.Rank))
		tr.SetThreadName(pid, tidCompute, "compute")
		tr.SetThreadName(pid, tidConvert, "convert")
		tr.SetThreadName(pid, tidH2D, "H2D")
		tr.SetThreadName(pid, tidD2H, "D2H")
		for _, iv := range d.Convert {
			tr.Span(pid, tidConvert, "convert", iv.Start, iv.End, "generic_work",
				map[string]any{"watts": iv.Power})
		}
		for _, iv := range d.H2D {
			tr.Span(pid, tidH2D, fmt.Sprintf("H2D %d B", iv.Bytes), iv.Start, iv.End, "",
				map[string]any{"bytes": iv.Bytes, "watts": iv.Power})
		}
		for _, iv := range d.D2H {
			tr.Span(pid, tidD2H, fmt.Sprintf("D2H %d B", iv.Bytes), iv.Start, iv.End, "",
				map[string]any{"bytes": iv.Bytes, "watts": iv.Power})
		}
	}
	// Kernel spans come from the task list so they carry task identity and
	// precision (the per-device Kernel intervals only carry power).
	for _, t := range st.Trace.Tasks {
		label := fmt.Sprintf("%s#%d", t.Kind, t.ID)
		if name != nil {
			label = name(t.ID)
		}
		tr.Span(t.Device, tidCompute, label, t.Start, t.End, obs.PrecisionColor(t.Prec.String()),
			map[string]any{"prec": t.Prec.String(), "task": t.ID})
	}
	for rank, ivs := range st.Trace.NICs {
		if len(ivs) == 0 {
			continue
		}
		pid := len(st.Trace.Devices) + rank
		tr.SetProcessName(pid, fmt.Sprintf("rank%d NIC", rank))
		tr.SetThreadName(pid, 0, "send")
		for _, iv := range ivs {
			tr.Span(pid, 0, fmt.Sprintf("bcast %d B", iv.Bytes), iv.Start, iv.End, "",
				map[string]any{"bytes": iv.Bytes})
		}
	}
	return tr.WriteJSON(w)
}
