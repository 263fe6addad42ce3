package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// TraceEvent is one Chrome trace-event object (the "JSON Array Format" of
// the Trace Event specification, understood by chrome://tracing and
// Perfetto). Durations and timestamps are microseconds.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object format.
type chromeFile struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Trace accumulates trace events for one run. Process/thread naming follows
// the convention used throughout this repo: one pid per simulated device (or
// NIC), one tid per stream within it.
type Trace struct {
	events []TraceEvent
	meta   map[string]any
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{meta: make(map[string]any)}
}

// SetMeta attaches a key to the file's otherData section (run parameters,
// config labels, digests).
func (t *Trace) SetMeta(key string, v any) { t.meta[key] = v }

// SetProcessName names a pid row ("dev0 (V100)", "rank0 NIC").
func (t *Trace) SetProcessName(pid int, name string) {
	t.events = append(t.events, TraceEvent{
		Name: "process_name", Phase: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
}

// SetThreadName names a tid row within a pid ("compute", "H2D", "D2H").
func (t *Trace) SetThreadName(pid, tid int, name string) {
	t.events = append(t.events, TraceEvent{
		Name: "thread_name", Phase: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
}

// Span appends a complete ("X") event covering [startSec, endSec), given in
// seconds and converted to the format's microseconds. cname selects one of
// the trace viewer's reserved color names ("" for the default palette);
// args may be nil.
func (t *Trace) Span(pid, tid int, name string, startSec, endSec float64, cname string, args map[string]any) {
	dur := (endSec - startSec) * 1e6
	if dur < 0 {
		dur = 0
	}
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: "X", TS: startSec * 1e6, Dur: dur,
		PID: pid, TID: tid, Cname: cname, Args: args,
	})
}

// CounterSample appends a counter ("C") event, rendered by the viewer as a
// stacked area chart (used for power traces).
func (t *Trace) CounterSample(pid int, name string, atSec float64, series map[string]float64) {
	args := make(map[string]any, len(series))
	for k, v := range series {
		args[k] = v
	}
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: "C", TS: atSec * 1e6, PID: pid, Args: args,
	})
}

// Len returns the number of accumulated events (metadata included).
func (t *Trace) Len() int { return len(t.events) }

// WriteJSON renders the trace as a Chrome trace-event JSON object. Events
// are sorted by (ts, pid, tid) with metadata first, so output is
// deterministic for a deterministic run.
func (t *Trace) WriteJSON(w io.Writer) error {
	evs := append([]TraceEvent(nil), t.events...)
	sort.SliceStable(evs, func(i, j int) bool {
		mi, mj := evs[i].Phase == "M", evs[j].Phase == "M"
		if mi != mj {
			return mi
		}
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		if evs[i].PID != evs[j].PID {
			return evs[i].PID < evs[j].PID
		}
		return evs[i].TID < evs[j].TID
	})
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		OtherData:       t.meta,
	})
}

// PrecisionColor maps a precision name to a reserved trace-viewer color so
// timeline rows read at a glance: heavy FP64 work is dark, half-precision
// work is light.
func PrecisionColor(prec string) string {
	switch prec {
	case "FP64":
		return "thread_state_uninterruptible" // dark red
	case "FP32":
		return "thread_state_iowait" // orange
	case "TF32", "BF16_32":
		return "thread_state_runnable" // blue
	case "FP16_32":
		return "thread_state_running" // green
	case "FP16":
		return "light_memory_dump" // pale
	default:
		return ""
	}
}
