package fp16

import (
	"math"
	"testing"
)

func FuzzFromFloat32(f *testing.F) {
	f.Add(float32(0))
	f.Add(float32(1))
	f.Add(float32(-1))
	f.Add(float32(65504))
	f.Add(float32(65520))
	f.Add(float32(6e-5))
	f.Add(float32(5.9e-8))
	f.Add(float32(math.Pi))
	f.Add(float32(math.Inf(1)))
	f.Fuzz(func(t *testing.T, x float32) {
		h := FromFloat32(x)
		back := h.ToFloat32()
		// Idempotence: the result must be exactly representable.
		if FromFloat32(back) != h && !h.IsNaN() {
			t.Fatalf("not idempotent: %g -> %#04x -> %g", x, h, back)
		}
		if math.IsNaN(float64(x)) {
			if !h.IsNaN() {
				t.Fatal("NaN lost")
			}
			return
		}
		// Error bound: |back - x| ≤ max(u*|x|, smallest subnormal) or
		// saturation to ±Inf beyond the overflow threshold.
		if math.IsInf(float64(back), 0) {
			if math.Abs(float64(x)) < 65520 {
				t.Fatalf("overflowed below threshold: %g", x)
			}
			return
		}
		bound := math.Abs(float64(x))*0x1p-11 + HalfSmallestSubnormal
		if d := math.Abs(float64(back) - float64(x)); d > bound*(1+1e-9) {
			t.Fatalf("error %g exceeds bound %g for input %g", d, bound, x)
		}
	})
}
