// Package obs is the runtime observability layer: a typed metrics registry
// (counters, gauges, histograms), a Chrome trace-event exporter readable by
// chrome://tracing and Perfetto, and an FNV-1a schedule digest used to prove
// bit-identical schedules across GOMAXPROCS settings, plan replays and
// scheduling-neutral changes.
//
// The package is deliberately zero-dependency (standard library only) and
// knows nothing about the engine: internal/runtime populates a Registry
// during commit/complete/publish and renders its interval traces through
// Trace, so every consumer — the CLIs, the benches, the tests — reads run
// behaviour through one vocabulary instead of poking at engine internals.
package obs
