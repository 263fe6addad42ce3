// Package obs is the runtime observability layer: a Chrome trace-event
// exporter readable by chrome://tracing and Perfetto, an FNV-1a schedule
// digest used to prove bit-identical schedules across GOMAXPROCS settings,
// plan replays and scheduling-neutral changes.
//
// The package is deliberately zero-dependency (standard library only) and
// knows nothing about the engine: internal/runtime hashes its committed
// schedule into a Digest and renders its interval traces through Trace.
// What a run did — tasks, conversions, makespan, energy, bytes per link and
// precision — is the typed runtime.Stats.
package obs
