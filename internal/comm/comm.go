// Package comm models the communication fabric of the simulated machine as
// first-class resources: every host-link direction (PCIe/NVLink up and
// down) and every rank's NIC is a Link — a serial resource with its own
// free time, cumulative busy time and (optionally) a traced interval log.
//
// The runtime engine used to fold all of this into ad-hoc scalar fields
// (h2dFree, nicFree, ...); extracting it here makes links auditable (the
// invariant auditor proves per-link intervals never overlap and integrate
// to the link's busy time). The float arithmetic is kept
// bit-identical to the historical inline code: StartAfter is the same
// math.Max chain, Time the same latency + bytes/bandwidth expression.
package comm

import (
	"math"

	"geompc/internal/hw"
)

// Interval is a traced activity window on a device stream or a link.
type Interval struct {
	Start, End float64
	Power      float64 // dynamic watts during the window (trace use)
	Bytes      int64   // bytes moved, for transfer streams (0 for compute)
}

// Link is one serial transfer resource. A transfer is booked in two steps —
// StartAfter to find the earliest start, Occupy to commit a duration — so
// callers can scale the duration (a broadcast holds the NIC for several
// hop times) and account for it before it is committed.
type Link struct {
	name string
	spec hw.LinkSpec

	free  float64 // next instant the link is idle
	busy  float64 // cumulative occupied time
	trace bool
	ivs   []Interval
}

// NewLink builds an idle link. With trace set, every Occupy appends to the
// interval log.
func NewLink(name string, spec hw.LinkSpec, trace bool) *Link {
	return &Link{name: name, spec: spec, trace: trace}
}

// Name identifies the link in traces and audit reports.
func (l *Link) Name() string { return l.name }

// Spec returns the link's timing/power model.
func (l *Link) Spec() hw.LinkSpec { return l.spec }

// Time returns the nominal transfer time of nbytes over the link.
func (l *Link) Time(nbytes int64) float64 { return l.spec.Time(nbytes) }

// StartAfter returns the earliest instant a transfer may begin: when the
// link is free and the data is available.
func (l *Link) StartAfter(earliest float64) float64 {
	return math.Max(l.free, earliest)
}

// Occupy books the link for [start, start+dur), returning the end time.
// Callers must pass a start ≥ StartAfter(...) of the same booking round;
// the link's intervals are then non-overlapping by construction.
func (l *Link) Occupy(start, dur float64, nbytes int64) float64 {
	end := start + dur
	l.free = end
	l.busy += dur
	if l.trace {
		l.ivs = append(l.ivs, Interval{Start: start, End: end, Power: l.spec.Power, Bytes: nbytes})
	}
	return end
}

// Busy returns the cumulative time the link has been occupied.
func (l *Link) Busy() float64 { return l.busy }

// Intervals returns the traced occupancy log (nil when tracing is off).
// The slice stays valid until the next Occupy.
func (l *Link) Intervals() []Interval { return l.ivs }
