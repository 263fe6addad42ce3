// Package runtime implements the task-based execution engine the paper
// builds on (§III-B): a PaRSEC-like dataflow runtime that schedules
// fine-grained tile tasks across (simulated) GPUs as soon as their
// dependencies are satisfied, overlapping kernel execution with host-device
// transfers and inter-rank communication.
//
// The engine is a deterministic discrete-event simulation: every task and
// transfer is assigned a virtual start/end time from calibrated device
// models (internal/hw), while numeric task bodies — when present — execute
// real arithmetic, so a run yields both the factorized matrix and the
// simulated elapsed time, data motion, energy and occupancy of the
// modeled machine.
//
// Task graphs are supplied algebraically through the Graph interface, in
// the spirit of PaRSEC's Parameterized Task Graph: the engine never stores
// the full DAG, only O(1) counters per task and the specs of tasks
// currently in flight, which is what makes 384-GPU, 10⁷-task Summit
// simulations tractable.
package runtime

import (
	"geompc/internal/hw"
	"geompc/internal/prec"
)

// DataID identifies a unit of data (a tile) across the whole platform.
type DataID int64

// InputSpec declares one tile read by a task, with the wire format chosen
// by the automated conversion strategy: WireBytes is what a transfer of
// this tile costs, and ConvertElems > 0 means this consumer must convert
// the received data before use (TTC receiver-side conversion).
type InputSpec struct {
	Data      DataID
	WireBytes int64
	// WirePrec is the element format the tile travels in (buckets the
	// bytes in Stats.H2DByPrec). The zero value is FP64.
	WirePrec prec.Precision
	// Receiver-side conversion (TTC): number of elements to convert on the
	// consuming device before the kernel runs; 0 if none.
	ConvertElems     int
	ConvFrom, ConvTo prec.Precision
}

// OutputSpec declares the tile a task writes. Bytes is the device-resident
// footprint (the tile's storage precision); Prec labels that footprint's
// element format for Stats.H2DByPrec and D2HByPrec (zero value FP64).
type OutputSpec struct {
	Data  DataID
	Bytes int64
	Prec  prec.Precision
}

// PublishSpec describes what happens when a task's output must be made
// visible beyond its device: an optional sender-side conversion (STC), a
// device-to-host copy of the wire representation, and a broadcast to
// remote ranks.
type PublishSpec struct {
	WireBytes int64
	// WirePrec labels the wire format of the D2H copy and broadcast for
	// Stats.D2HByPrec and NetByPrec (zero value FP64).
	WirePrec prec.Precision
	// Sender-side conversion (STC): elements converted on the producer
	// device before the D2H copy; 0 under TTC.
	ConvertElems     int
	ConvFrom, ConvTo prec.Precision
	// RemoteRanks lists ranks other than the producer's that consume the
	// data (network broadcast targets).
	RemoteRanks []int
}

// TaskSpec is the full description of one task, produced on demand by a
// Graph. Body, when non-nil, performs the real numeric work: it starts once
// the task is committed and every graph predecessor's body has returned; an
// error keeps exactly its graph descendants' bodies from running.
type TaskSpec struct {
	ID       int
	Kind     hw.KernelKind
	Device   int // global device index
	Prec     prec.Precision
	Flops    float64
	Priority int64
	Inputs   []InputSpec
	Output   OutputSpec
	Publish  *PublishSpec
	Body     func() error
}

// Graph supplies a task system algebraically. Implementations must be
// deterministic: the same id always yields the same spec.
type Graph interface {
	// NumTasks is the total number of tasks.
	NumTasks() int
	// Spec fills s with the description of task id. The engine recycles
	// TaskSpec records: s may arrive still holding the fields of a
	// previously completed task, so implementations must set every field
	// they care about — and may reuse the allocations already reachable
	// from s (e.g. refill s.Inputs[:0] or an existing s.Publish) to keep
	// the hot path allocation-free.
	Spec(id int, s *TaskSpec)
	// NumPredecessors returns the in-degree of task id.
	NumPredecessors(id int) int
	// Successors appends the ids of tasks depending on id to buf and
	// returns it. In a graph with bodies it is also called from the
	// goroutines that run them, concurrently with itself and the others.
	Successors(id int, buf []int) []int
	// InitialData enumerates every DataID resident in host memory before
	// execution starts, with its owning rank (matrix generation phase).
	InitialData(visit func(d DataID, rank int))
}
