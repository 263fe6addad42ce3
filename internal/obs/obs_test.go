package obs

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"
)

func TestDigestMatchesStdlibFNV(t *testing.T) {
	// Our incremental digest, from its zero value, must agree with hash/fnv
	// over the same bytes.
	var d Digest
	d.WriteString("schedule")
	ref := fnv.New64a()
	ref.Write([]byte("schedule"))
	if d.Sum() != ref.Sum64() {
		t.Errorf("digest %x != stdlib fnv %x", d.Sum(), ref.Sum64())
	}

	var d2 Digest
	d2.WriteUint64(0x0123456789abcdef)
	ref2 := fnv.New64a()
	ref2.Write([]byte{0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01})
	if d2.Sum() != ref2.Sum64() {
		t.Errorf("uint64 digest %x != stdlib %x", d2.Sum(), ref2.Sum64())
	}
}

func TestDigestSensitivity(t *testing.T) {
	var a, b Digest
	a.WriteFloat64(1.0)
	b.WriteFloat64(math.Nextafter(1.0, 2.0))
	if a.Sum() == b.Sum() {
		t.Error("one-ULP difference not detected")
	}
}

func TestChromeTraceJSON(t *testing.T) {
	tr := NewTrace()
	tr.SetMeta("config", "test")
	tr.SetProcessName(0, "dev0 (V100)")
	tr.SetThreadName(0, 0, "compute")
	tr.SetThreadName(0, 1, "H2D")
	tr.Span(0, 0, "GEMM(1,0,0)", 0.001, 0.002, PrecisionColor("FP16_32"), map[string]any{"prec": "FP16_32"})
	tr.Span(0, 1, "H2D 32 MiB", 0.0005, 0.0015, "", nil)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
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
	if parsed.OtherData["config"] != "test" {
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
			}
		case "M":
			meta++
		}
	}
	if spans != 2 || meta != 3 {
		t.Errorf("got %d spans, %d metadata events", spans, meta)
	}
	// Metadata must precede spans after sorting.
	if parsed.TraceEvents[0].Phase != "M" {
		t.Error("metadata events not first")
	}
}
