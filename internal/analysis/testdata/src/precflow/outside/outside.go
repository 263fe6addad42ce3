// Fixture for precflow's direct rule, loaded as geompc/internal/mle — outside the audited
// conversion packages, so every lossy down-cast is flagged.
package mle

import "math"

func downcast(x float64, f float32) (float32, uint16, uint32) {
	a := float32(x)                    // want `lossy float64→float32 conversion`
	b := uint16(f)                     // want `float→uint16 conversion outside internal/fp16`
	c := math.Float32bits(f) >> 16     // want `literal half-precision bit-twiddling`
	d := math.Float32bits(f) &^ 0x1fff // want `literal half-precision bit-twiddling`
	_ = d
	return a, b, c
}

// Exact or widening conversions are fine, as are constants.
func fine(f float32, n int) (float64, float32, float32, uint16) {
	w := float64(f)
	k := float32(1.5)
	g := float32(f)
	u := uint16(n)
	return w, k, g, u
}

// suppressed demonstrates routing around the check with a reason.
func suppressed(x float64) float32 {
	return float32(x) //geompc:nolint precflow fixture exercises the suppression path
}
