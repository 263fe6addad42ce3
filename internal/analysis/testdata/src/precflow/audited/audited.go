// Fixture for precflow's direct rule, loaded as geompc/internal/fp16 — the audited
// conversion API itself, where the down-casts and bit-twiddling are the
// whole point.
package fp16

import "math"

func round(x float64, f float32) (float32, uint16, uint32) {
	a := float32(x)
	b := uint16(math.Float32bits(f) >> 16)
	c := math.Float32bits(f) &^ 0x1fff
	return a, b, c
}
