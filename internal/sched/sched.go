// Package sched defines the runtime engine's pluggable scheduling policy:
// how ready tasks are ordered on each device's queue, and whether a ready
// task may execute on a different same-rank device than its owner-computes
// home.
//
// Policies are strictly about *placement and order in virtual time*: numeric
// task bodies run exactly once whatever the policy, so every policy produces
// the bit-identical factor. FIFO is the engine's historical behavior — under it
// (and the default broadcast topology) schedules are bit-for-bit the same as
// before this package existed, which the pinned golden digests prove.
package sched

import "fmt"

// Key is the ordering key of one ready task.
type Key struct {
	ID       int
	Priority int64
	// CP is the task's critical-path length (longest downstream chain,
	// in tasks, including itself). Filled only for policies that request
	// NeedCriticalPath; 0 otherwise.
	CP int64
}

// DataRef names one datum a task touches, with its device-resident size.
type DataRef struct {
	Data  int64
	Bytes int64
}

// Machine is the read-only view of the simulated platform a policy may
// consult. Implementations are engine-backed and must stay allocation-free.
type Machine interface {
	NumDevices() int
	DevPerRank() int
	RankOf(dev int) int
	// ResidentBytes returns the bytes of datum data currently resident on
	// dev (0 when absent).
	ResidentBytes(dev int, data int64) int64
}

// Hints declares which optional (and non-free) engine features a policy
// needs; the engine skips the corresponding work entirely for policies that
// don't ask.
type Hints uint8

const (
	// NeedCriticalPath requests Key.CP: an O(V+E) reverse pass over the
	// graph before the run starts.
	NeedCriticalPath Hints = 1 << iota
	// NeedPlacement requests that Place be consulted for every ready task
	// (with its input/output DataRefs gathered).
	NeedPlacement
)

// Policy decides ready-queue order and device placement. All
// methods must be deterministic pure functions of their arguments.
type Policy interface {
	Name() string
	Hints() Hints
	// Before reports whether task a should run before task b when both are
	// ready on the same device. It must be a strict weak ordering and total
	// (break ties by ID) to keep the simulation deterministic.
	Before(a, b Key) bool
	// Place returns the device a ready task should execute on. home is the
	// owner-computes placement; the result must be a device of the same
	// rank (host tile copies live per rank — the engine clamps violations
	// back to home). Only consulted when Hints has NeedPlacement.
	Place(home int, inputs []DataRef, m Machine) int
}

// fifoBefore is the engine's historical ready order: descending priority,
// ties broken by ascending task id.
func fifoBefore(a, b Key) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.ID < b.ID
}

// FIFO is the default policy and the engine's historical behavior:
// owner-computes placement, priority/id queue order.
type FIFO struct{}

func (FIFO) Name() string                               { return "fifo" }
func (FIFO) Hints() Hints                               { return 0 }
func (FIFO) Before(a, b Key) bool                       { return fifoBefore(a, b) }
func (FIFO) Place(home int, _ []DataRef, _ Machine) int { return home }

// Policies returns every built-in policy, default first.
func Policies() []Policy {
	return []Policy{FIFO{}, Locality{}, CriticalPath{}}
}

// ByName resolves "fifo", "locality" or "cp"/"critical-path". The empty
// string resolves to the default (fifo).
func ByName(name string) (Policy, error) {
	switch name {
	case "", "fifo":
		return FIFO{}, nil
	case "locality":
		return Locality{}, nil
	case "cp", "critical-path", "criticalpath":
		return CriticalPath{}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want fifo, locality or cp)", name)
}
