package runtime

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"geompc/internal/prec"
)

// traceEvent is one Chrome trace-event object (the "JSON Array Format" of
// the Trace Event specification, understood by chrome://tracing and
// Perfetto). Durations and timestamps are microseconds.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// precColor maps each precision to a reserved trace-viewer color so
// timeline rows read at a glance: heavy FP64 work is dark, half-precision
// work is light.
var precColor = [prec.Count]string{
	prec.FP64:    "thread_state_uninterruptible", // dark red
	prec.FP32:    "thread_state_iowait",          // orange
	prec.TF32:    "thread_state_runnable",        // blue
	prec.BF16x32: "thread_state_runnable",
	prec.FP16x32: "thread_state_running", // green
	prec.FP16:    "light_memory_dump",    // pale
}

// WriteChromeTrace renders the timeline of a traced run's record st as a
// Chrome trace-event (Perfetto-loadable) JSON timeline: one process per
// device, with threads for the compute, conversion, H2D and D2H streams,
// plus one process per rank's NIC. Kernel spans are colored by execution
// precision. name, when non-nil, supplies a human-readable label for task
// id (e.g. "GEMM(4,1,2)"); otherwise spans are labeled by kernel kind and
// id. Events are sorted by (ts, pid, tid) with metadata first, so the
// bytes are deterministic for a deterministic run.
func WriteChromeTrace(w io.Writer, st Stats, name func(id int) string) error {
	if st.Trace == nil {
		return fmt.Errorf("runtime: no trace recorded (set Options.Trace)")
	}
	var evs []traceEvent
	// meta names a pid row (kind "process_name") or a tid row within it
	// ("thread_name").
	meta := func(pid, tid int, kind, row string) {
		evs = append(evs, traceEvent{Name: kind, Phase: "M", PID: pid, TID: tid, Args: map[string]any{"name": row}})
	}
	// span appends a complete ("X") event covering [start, end) seconds.
	span := func(pid, tid int, label string, start, end float64, cname string, args map[string]any) {
		evs = append(evs, traceEvent{Name: label, Phase: "X", TS: start * 1e6, Dur: max(end-start, 0) * 1e6,
			PID: pid, TID: tid, Cname: cname, Args: args})
	}

	const (
		tidCompute = 0
		tidConvert = 1
		tidH2D     = 2
		tidD2H     = 3
	)
	for pid, d := range st.Trace.Devices {
		meta(pid, 0, "process_name", fmt.Sprintf("dev%d (%s, rank %d)", pid, d.GPU, d.Rank))
		meta(pid, tidCompute, "thread_name", "compute")
		meta(pid, tidConvert, "thread_name", "convert")
		meta(pid, tidH2D, "thread_name", "H2D")
		meta(pid, tidD2H, "thread_name", "D2H")
		for _, iv := range d.Convert {
			span(pid, tidConvert, "convert", iv.Start, iv.End, "generic_work",
				map[string]any{"watts": iv.Power})
		}
		for _, iv := range d.H2D {
			span(pid, tidH2D, fmt.Sprintf("H2D %d B", iv.Bytes), iv.Start, iv.End, "",
				map[string]any{"bytes": iv.Bytes, "watts": iv.Power})
		}
		for _, iv := range d.D2H {
			span(pid, tidD2H, fmt.Sprintf("D2H %d B", iv.Bytes), iv.Start, iv.End, "",
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
		span(t.Device, tidCompute, label, t.Start, t.End, precColor[t.Prec],
			map[string]any{"prec": t.Prec.String(), "task": t.ID})
	}
	for rank, ivs := range st.Trace.NICs {
		if len(ivs) == 0 {
			continue
		}
		pid := len(st.Trace.Devices) + rank
		meta(pid, 0, "process_name", fmt.Sprintf("rank%d NIC", rank))
		meta(pid, 0, "thread_name", "send")
		for _, iv := range ivs {
			span(pid, 0, fmt.Sprintf("bcast %d B", iv.Bytes), iv.Start, iv.End, "",
				map[string]any{"bytes": iv.Bytes})
		}
	}

	// "M" sorts before "X": metadata first, then by time and row.
	slices.SortStableFunc(evs, func(a, b traceEvent) int {
		return cmp.Or(cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.TS, b.TS), a.PID-b.PID, a.TID-b.TID)
	})
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent      `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{evs, "ms", map[string]string{
		"makespan_seconds": fmt.Sprintf("%g", st.Makespan),
		"energy_joules":    fmt.Sprintf("%g", st.Energy),
		"schedule_digest":  fmt.Sprintf("%016x", st.ScheduleDigest),
	}})
}
