package runtime

import (
	"fmt"
	"math"
)

// This file implements the run-invariant auditor (Options.Audit). It checks
// properties that should hold by construction in every run:
//
//   - accounting: a device's `used` counter always equals the sum of its
//     resident entries' bytes;
//   - residency: the LRU never holds more than the device memory while an
//     evictable (unpinned) tile exists — over-commit is legal only when
//     every resident tile is pinned by in-flight tasks;
//   - pin balance: when the run completes, every device has completed
//     every task it committed, so no tile is still pinned;
//   - energy conservation: the traced activity intervals, integrated as
//     power·duration and added to idle·makespan, reproduce Stats.Energy to
//     within floating-point reassociation error (relative 1e-9).
//
// Violations are collected (capped) rather than panicking, so a single run
// reports every broken invariant at once.

// maxViolations bounds the collected report; past this the auditor
// only counts.
const maxViolations = 16

func (e *engine) violate(format string, args ...any) {
	if len(e.auditViol) < maxViolations {
		e.auditViol = append(e.auditViol, fmt.Sprintf(format, args...))
	}
}

// auditResidency validates device d's LRU state right after task taskID
// staged its tiles (the moment of maximal pressure).
func (e *engine) auditResidency(d *device, taskID int) {
	var sum int64
	unpinned, n := 0, 0
	// The LRU list must contain exactly the index's entries, each reachable
	// by lookup under its own id.
	for s := d.lruHead; s != 0; s = d.slab[s].next {
		entry := &d.slab[s]
		n++
		sum += entry.bytes
		if entry.use <= d.done {
			unpinned++
		}
		if d.resident[entry.data] != s {
			e.violate("dev%d after task %d: LRU list entry %d not in resident index", d.id, taskID, entry.data)
			break
		}
	}
	if sum != d.used {
		e.violate("dev%d after task %d: used=%d but resident entries sum to %d", d.id, taskID, d.used, sum)
	}
	if d.used > d.spec.MemBytes && unpinned > 0 {
		e.violate("dev%d after task %d: resident %d B exceeds memory %d B with %d evictable tile(s)",
			d.id, taskID, d.used, d.spec.MemBytes, unpinned)
	}
	if n != d.nResident {
		e.violate("dev%d after task %d: LRU list has %d entries, index has %d", d.id, taskID, n, d.nResident)
	}
}

// auditFinal runs the end-of-run checks: pin balance, every link's serial
// occupancy and energy conservation. Called after finalizeStats.
func (e *engine) auditFinal() {
	for _, d := range e.devices {
		if d.done != d.committed {
			e.violate("dev%d at completion: %d of %d committed tasks completed", d.id, d.done, d.committed)
		}
		e.auditLink(d.h2d)
		e.auditLink(d.d2h)
	}
	for _, nic := range e.nics {
		e.auditLink(nic)
	}

	// Integrate the traced intervals and compare against the closed-form
	// energy accrued during the run.
	var traced float64
	for _, d := range e.devices {
		for _, ivs := range [][]Interval{d.busyIntervals, d.convIntervals, d.h2d.ivs, d.d2h.ivs} {
			for _, iv := range ivs {
				if iv.End < iv.Start {
					e.violate("dev%d: interval ends (%g) before it starts (%g)", d.id, iv.End, iv.Start)
				}
				traced += (iv.End - iv.Start) * iv.Power
			}
		}
		// Every device draws idle power for the whole makespan
		// (finalizeStats accounts it identically).
		traced += d.spec.IdleW * e.stats.Makespan
	}
	if diff := math.Abs(traced - e.stats.Energy); diff > 1e-9*math.Max(1, math.Abs(e.stats.Energy)) {
		e.violate("energy conservation: traced intervals integrate to %.12g J, Stats.Energy is %.12g J (diff %g)",
			traced, e.stats.Energy, diff)
	}
}

// relClose reports a ≈ b to within floating-point reassociation error: a
// link's busy counter accumulates durations while the interval sum
// accumulates (end−start) differences, which reassociate differently.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// auditLink checks one serial link's trace: no two occupancy intervals
// overlap (a serial resource carries one transfer at a time), and the
// intervals integrate to the link's cumulative busy time.
func (e *engine) auditLink(l *link) {
	var sum, prevEnd float64
	for i, iv := range l.ivs {
		if iv.End < iv.Start {
			e.violate("link %s: interval %d ends (%g) before it starts (%g)", l.name, i, iv.End, iv.Start)
		}
		if iv.Start < prevEnd && !relClose(iv.Start, prevEnd) {
			e.violate("link %s: interval %d starts at %g, overlapping the previous end %g",
				l.name, i, iv.Start, prevEnd)
		}
		prevEnd = iv.End
		sum += iv.End - iv.Start
	}
	if !relClose(sum, l.busy) {
		e.violate("link %s: traced intervals sum to %.12g s of occupancy, busy counter says %.12g s",
			l.name, sum, l.busy)
	}
}
