package runtime

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// TestChromeTraceJSON renders a hand-built one-device timeline and parses
// it back: the file header, the otherData run summary, span timestamps in
// microseconds, the device's metadata rows, and metadata sorted first.
func TestChromeTraceJSON(t *testing.T) {
	st := Stats{ScheduleDigest: 0xfeed, Trace: &Trace{
		Devices: []DeviceTrace{{GPU: "V100", H2D: []Interval{{Start: 0.0005, End: 0.0015, Bytes: 32 << 20}}}},
		Tasks:   []ScheduledTask{{ID: 7, Kind: hw.KindGemm, Prec: prec.FP16x32, Start: 0.001, End: 0.002}},
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, st, func(int) string { return "GEMM(1,0,0)" }); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Cname string         `json:"cname"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
	if parsed.OtherData["schedule_digest"] != "000000000000feed" {
		t.Errorf("otherData missing: %v", parsed.OtherData)
	}
	var spans, meta int
	for _, e := range parsed.TraceEvents {
		switch e.Phase {
		case "X":
			spans++
			if e.Name == "GEMM(1,0,0)" {
				if math.Abs(e.TS-1000) > 1e-9 || math.Abs(e.Dur-1000) > 1e-9 {
					t.Errorf("span ts/dur = %g/%g µs, want 1000/1000", e.TS, e.Dur)
				}
				if e.Cname != "thread_state_running" || e.Args["prec"] != "FP16_32" {
					t.Errorf("FP16_32 span colored %q, args %v", e.Cname, e.Args)
				}
			}
		case "M":
			meta++
		}
	}
	// One process row and four stream rows for the one device.
	if spans != 2 || meta != 5 {
		t.Errorf("got %d spans, %d metadata events", spans, meta)
	}
	// Metadata must precede spans after sorting.
	if parsed.TraceEvents[0].Phase != "M" {
		t.Error("metadata events not first")
	}
}
