package runtime

// PlanRecorder observes the engine's execution stream for plan compilation
// (internal/plan): RecordCommit fires when a task is committed to a device
// pipeline (its data staged, its virtual window booked, its numeric body —
// if any — submitted), RecordComplete when its completion event retires and
// the body has been joined, strictly before any successor commits.
//
// The interleaved commit/complete stream therefore encodes exactly the
// synchronization a later numeric replay must reproduce: starting a task's
// body at its recorded commit and joining it at its recorded completion
// yields the same producer-before-consumer dataflow order as the original
// run, without re-simulating the event heap.
//
// Both callbacks run on the engine's (single) event-loop goroutine.
type PlanRecorder interface {
	RecordCommit(id int)
	RecordComplete(id int)
}
