// Fixture for deterflow's direct rule, loaded as geompc/internal/runtime — a
// virtual-clock package where both the clock rule and the map-order rule
// apply.
package runtime

import (
	"math/rand"
	"sort"
	"time"
)

type table struct {
	weights map[string]float64
	counts  map[string]int
	marks   map[int]bool
}

// sortedKeys collects and sorts: the map order never escapes.
func (t *table) sortedKeys() []string {
	var keys []string
	for k := range t.weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// leakedKeys returns keys in map order.
func (t *table) leakedKeys() []string {
	var keys []string
	for k := range t.weights { // want `range over map t\.weights`
		keys = append(keys, k)
	}
	return keys
}

// commutative bodies are exempt: integer counters, map writes, deletes.
func (t *table) fold() int {
	n := 0
	for k, c := range t.counts {
		n += c
		t.marks[len(k)] = true
	}
	for k := range t.marks {
		delete(t.marks, k)
	}
	return n
}

// floatSum accumulates floats, which does not commute bit-exactly.
func (t *table) floatSum() float64 {
	s := 0.0
	for _, w := range t.weights { // want `range over map t\.weights`
		s += w
	}
	return s
}

// suppressed demonstrates a well-formed //geompc:nolint.
func (t *table) suppressed() float64 {
	s := 0.0
	for _, w := range t.weights { //geompc:nolint deterflow commutative enough for a fixture
		s += w
	}
	return s
}

// wallClock draws from the wall clock and the global rand source.
func wallClock() (int64, int) {
	now := time.Now().UnixNano() // want `time\.Now in a virtual-clock package`
	n := rand.Intn(4)            // want `math/rand\.Intn uses the global rand source`
	return now, n
}

// seeded construction is the allowed way to get randomness here.
func seeded() *rand.Rand {
	return rand.New(rand.NewSource(42))
}
