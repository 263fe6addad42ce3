// Fixture helper package for precflow: unaudited code with a lossy
// lowering buried one call deep: precflow flags the cast itself and every
// call chain that reaches it.
package geo

import (
	fp16 "geompc/internal/fp16"
)

// Lower is the unaudited root: a silent float64→float32, flagged where it
// is written.
func Lower(x float64) float32 { return float32(x) } // want `precflow: lossy float64→float32 conversion outside the audited precision API`

// Via reaches the root through one frame: flagged at its own call edge.
func Via(x float64) float32 {
	return Lower(x) // want `precflow: call to geo.Lower reaches an unaudited float64→float32 conversion`
}

// Sanctioned routes through the audited API: the crossing edge sanitizes,
// no taint, no findings at callers.
func Sanctioned(x float64) float32 { return fp16.Quantize(x) }

// AuditedLower carries a reasoned suppression at the root: audited, clean.
func AuditedLower(x float64) float32 {
	return float32(x) //geompc:nolint precflow fixture: validated against the FP64 oracle in tests
}
