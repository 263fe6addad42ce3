// Fixture for deterflow, loaded as geompc/internal/geo — not a
// deterministic package, so sources sitting here are not findings.
package geo

import "time"

func anything(m map[string]float64) (float64, int64) {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s, time.Now().Unix()
}
