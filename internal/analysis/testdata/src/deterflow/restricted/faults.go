package runtime

import "math/rand"

// faults.go is the one non-test file in a virtual-clock package allowed to
// touch math/rand conveniences: the fault injector owns the repo's seeded
// source, and its helpers are allowlisted by file name.
func faultJitter() int {
	return rand.Intn(8)
}
