// Fixture helpers for deterflow: a utility package OUTSIDE the
// deterministic set. Nothing is reported here — deterflow findings appear
// at the sink-package edges that call in (see ../sink).
package helpers

import (
	"math/rand"
	"sort"
	"time"
)

// WallClock reads the real clock: tainted.
func WallClock() float64 { return float64(time.Now().UnixNano()) }

// Indirect launders WallClock through one more frame: still tainted, and
// the chain in the finding must name both hops.
func Indirect() float64 { return WallClock() }

// Draw uses the process-global rand source: tainted.
func Draw() int { return rand.Int() }

// Seeded draws from a caller-owned seeded source: clean.
func Seeded(r *rand.Rand) int { return r.Int() }

// KeysUnsorted leaks map iteration order into a slice: tainted.
func KeysUnsorted(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

// KeysSorted collects then sorts — the laundering idiom: clean.
func KeysSorted(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Audited reads the clock under a reasoned suppression: the root is
// audited, so callers stay clean.
func Audited() float64 {
	return float64(time.Now().UnixNano()) //geompc:nolint deterflow fixture: audited wall-clock read for cache warmup only
}
