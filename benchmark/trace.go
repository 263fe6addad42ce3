package main

import (
	"strings"
	"sync"
	"time"
)

// The traced pass times the calls into each layer's public functions from
// the benchmark's own files; nothing inside internal/ is instrumented.
// Spans are kept in memory and summarised when the run ends.
//
// A span's layer names the module it is charged to ("geo.covtile",
// "cholesky.run", ...). Two prefixes are special:
//
//   - "glue." spans are containers (one evaluation, one projection, one
//     replica); their self time is what no layer accounts for and is
//     reported as trace.unattributed_frac.
//   - "probe." spans are extra work only the traced pass does (a phantom
//     re-run to split engine from numerics, the bit-equality check against
//     mle.Problem.NegLogLik). They are leaves, and their time is removed
//     from every total so that it does not count as tracing overhead.
type span struct {
	layer      string
	parent     int // index of the span that caused this one, -1 for a root
	start, end time.Duration
}

type tracer struct {
	mu    sync.Mutex // mc_matern records from GOMAXPROCS goroutines
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(layer string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// in runs f inside a span.
func (t *tracer) in(layer string, parent int, f func()) {
	id := t.begin(layer, parent)
	f()
	t.end(id)
}

func isProbe(layer string) bool { return strings.HasPrefix(layer, "probe.") }
func isGlue(layer string) bool  { return strings.HasPrefix(layer, "glue.") }

// layerSum is what the traced pass knows about one layer.
type layerSum struct {
	self  time.Duration // Σ (duration − children) over the layer's spans
	spans int
}

// traceSummary is the whole traced pass, probes removed.
type traceSummary struct {
	layers map[string]layerSum
	total  time.Duration // Σ root durations − probe
	probe  time.Duration
}

func (t *tracer) summarize() traceSummary {
	child := make([]time.Duration, len(t.spans))
	s := traceSummary{layers: map[string]layerSum{}}
	for _, sp := range t.spans {
		d := sp.end - sp.start
		if sp.parent >= 0 {
			child[sp.parent] += d
		} else {
			s.total += d
		}
		if isProbe(sp.layer) {
			s.probe += d
		}
	}
	for i, sp := range t.spans {
		l := s.layers[sp.layer]
		l.self += sp.end - sp.start - child[i]
		l.spans++
		s.layers[sp.layer] = l
	}
	s.total -= s.probe
	return s
}

// selfMS returns a layer's self time in milliseconds.
func (s traceSummary) selfMS(layer string) float64 {
	return float64(s.layers[layer].self) / float64(time.Millisecond)
}

// unattributed is the share of the traced total spent in glue spans.
func (s traceSummary) unattributed() float64 {
	if s.total <= 0 {
		return 0
	}
	var glue time.Duration
	for name, l := range s.layers {
		if isGlue(name) {
			glue += l.self
		}
	}
	return float64(glue) / float64(s.total)
}

// netMS returns, for every span of layer, its duration minus its probe
// children, in milliseconds.
func (t *tracer) netMS(layer string) []float64 {
	probe := make([]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 && isProbe(sp.layer) {
			probe[sp.parent] += sp.end - sp.start
		}
	}
	var out []float64
	for i, sp := range t.spans {
		if sp.layer == layer {
			out = append(out, float64(sp.end-sp.start-probe[i])/float64(time.Millisecond))
		}
	}
	return out
}
