package sched

// Locality keeps FIFO's queue order but re-places each ready task onto the
// same-rank device already holding the most bytes of the task's inputs and
// output — deviating from the owner-computes home only when another device
// holds *strictly* more. Following the data cuts H2D restaging: a consumer
// landing where its tiles already sit stages nothing, where FIFO would
// re-fetch them from the rank's host memory.
//
// The scan is deterministic (ascending device id, strict improvement), so
// schedules remain reproducible; and because placement never crosses ranks,
// every input is still reachable from the rank's host copies.
type Locality struct{}

func (Locality) Name() string         { return "locality" }
func (Locality) Hints() Hints         { return NeedPlacement }
func (Locality) Before(a, b Key) bool { return fifoBefore(a, b) }

// Place runs once per ready task; it must stay allocation-free.
func (Locality) Place(home int, inputs []DataRef, m Machine) int {
	per := m.DevPerRank()
	if per <= 1 || len(inputs) == 0 {
		return home
	}
	base := m.RankOf(home) * per
	best := home
	var bestScore int64
	for _, ref := range inputs {
		bestScore += m.ResidentBytes(home, ref.Data)
	}
	for i := 0; i < per; i++ {
		dev := base + i
		if dev == home {
			continue
		}
		var score int64
		for _, ref := range inputs {
			score += m.ResidentBytes(dev, ref.Data)
		}
		if score > bestScore {
			best, bestScore = dev, score
		}
	}
	return best
}

// CriticalPath orders each ready queue by the task's critical-path length —
// the longest chain of tasks depending on it — so work that gates the most
// downstream parallelism drains first (the static-priority scheme of the
// out-of-core Cholesky scheduling literature). Placement stays the FIFO
// default; ties fall back to the graph's own priorities, then id.
type CriticalPath struct{}

func (CriticalPath) Name() string { return "cp" }
func (CriticalPath) Hints() Hints { return NeedCriticalPath }

func (CriticalPath) Before(a, b Key) bool {
	if a.CP != b.CP {
		return a.CP > b.CP
	}
	return fifoBefore(a, b)
}

func (CriticalPath) Place(home int, _ []DataRef, _ Machine) int { return home }
