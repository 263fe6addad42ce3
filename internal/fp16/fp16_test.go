package fp16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripExhaustive(t *testing.T) {
	// Every binary16 value must survive Half -> float32 -> Half unchanged
	// (modulo NaN payload, which only needs to stay a NaN).
	for i := 0; i <= 0xffff; i++ {
		h := Half(i)
		f := h.ToFloat32()
		back := FromFloat32(f)
		if h.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("NaN %#04x round-tripped to non-NaN %#04x", i, back)
			}
			continue
		}
		if back != h {
			t.Fatalf("half %#04x -> %g -> %#04x", i, f, back)
		}
	}
}

func TestFromFloat32Cases(t *testing.T) {
	cases := []struct {
		in   float32
		want Half
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // HalfMax
		{65505, 0x7bff},                 // rounds down to HalfMax
		{65520, 0x7c00},                 // ties away from max -> Inf
		{100000, 0x7c00},                // overflow -> +Inf
		{-100000, 0xfc00},               // overflow -> -Inf
		{6.103515625e-05, 0x0400},       // smallest normal
		{5.960464477539063e-08, 0x0001}, // smallest subnormal
		{2.9e-08, 0x0000},               // below half the smallest subnormal -> 0
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
	}
	for _, c := range cases {
		if got := FromFloat32(c.in); got != c.want {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
	if !FromFloat32(float32(math.NaN())).IsNaN() {
		t.Error("FromFloat32(NaN) is not NaN")
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; RNE keeps the even
	// significand, i.e. rounds down to 1.
	if got := RoundF32(1 + 0x1p-11); got != 1 {
		t.Errorf("RoundF32(1+2^-11) = %v, want 1 (ties-to-even)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; RNE rounds up to the
	// even significand 1+2^-9.
	if got := RoundF32(1 + 3*0x1p-11); got != 1+0x1p-9 {
		t.Errorf("RoundF32(1+3*2^-11) = %v, want %v", got, 1+0x1p-9)
	}
	// Just above the tie must round up.
	if got := RoundF32(1 + 0x1p-11 + 0x1p-20); got != 1+0x1p-10 {
		t.Errorf("RoundF32(1+2^-11+eps) = %v, want %v", got, 1+0x1p-10)
	}
}

func TestRoundErrorBound(t *testing.T) {
	// |round(x) - x| <= u*|x| with u = 2^-11 for normal-range values.
	if err := quick.Check(func(x float64) bool {
		x = math.Mod(x, 60000)
		if math.Abs(x) < HalfMin {
			return true
		}
		r := float64(RoundF32(float32(x)))
		return math.Abs(r-x) <= 0x1p-11*math.Abs(x)*(1+1e-12)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBF16Round(t *testing.T) {
	cases := []struct{ in, want float32 }{
		{1, 1},
		{1 + 0x1p-8, 1}, // tie to even
		{1 + 0x1p-7, 1 + 0x1p-7},
		{3.14159265, 3.140625},
		{-3.14159265, -3.140625},
		{0, 0},
	}
	for _, c := range cases {
		if got := BF16Round(c.in); got != c.want {
			t.Errorf("BF16Round(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(float64(BF16Round(float32(math.NaN())))) {
		t.Error("BF16Round(NaN) is not NaN")
	}
	if !math.IsInf(float64(BF16Round(float32(math.Inf(1)))), 1) {
		t.Error("BF16Round(+Inf) is not +Inf")
	}
}

func TestTF32Round(t *testing.T) {
	// TF32 keeps 10 significand bits: same precision as half, full f32 range.
	if got := TF32Round(1 + 0x1p-11); got != 1 {
		t.Errorf("TF32Round(1+2^-11) = %v, want 1", got)
	}
	if got := TF32Round(1 + 0x1p-10); got != 1+0x1p-10 {
		t.Errorf("TF32Round(1+2^-10) = %v, want 1+2^-10", got)
	}
	// Unlike FP16, TF32 must not overflow at 1e5.
	if got := TF32Round(1e5); math.IsInf(float64(got), 0) {
		t.Error("TF32Round(1e5) overflowed")
	}
	if !math.IsNaN(float64(TF32Round(float32(math.NaN())))) {
		t.Error("TF32Round(NaN) is not NaN")
	}
}

func TestBF16TF32Idempotent(t *testing.T) {
	if err := quick.Check(func(x float32) bool {
		if math.IsNaN(float64(x)) {
			return true
		}
		return BF16Round(BF16Round(x)) == BF16Round(x) &&
			TF32Round(TF32Round(x)) == TF32Round(x) &&
			RoundF32(RoundF32(x)) == RoundF32(x)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHalfArithmetic(t *testing.T) {
	one := FromFloat32(1)
	eps := FromFloat32(HalfEps)
	if got := AddHalf(one, eps).ToFloat32(); got != 1+HalfEps {
		t.Errorf("1+eps = %v, want %v", got, 1+HalfEps)
	}
	// Half-precision accumulation absorbs tiny addends: 1 + eps/4 == 1.
	tiny := FromFloat32(HalfEps / 4)
	if got := AddHalf(one, tiny).ToFloat32(); got != 1 {
		t.Errorf("1+eps/4 = %v, want absorption to 1", got)
	}
	if got := MulHalf(FromFloat32(3), FromFloat32(7)).ToFloat32(); got != 21 {
		t.Errorf("3*7 = %v, want 21", got)
	}
}

func TestInfNaNPredicates(t *testing.T) {
	if !Half(0x7c00).IsInf() || !Half(0xfc00).IsInf() {
		t.Error("IsInf failed on infinities")
	}
	if Half(0x7c00).IsNaN() {
		t.Error("+Inf classified as NaN")
	}
	if !Half(0x7e00).IsNaN() {
		t.Error("quiet NaN not classified as NaN")
	}
	if Half(0x3c00).IsInf() || Half(0x3c00).IsNaN() {
		t.Error("1.0 misclassified")
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = FromFloat32(float32(i) * 0.001)
	}
}

func BenchmarkRoundF32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RoundF32(float32(i) * 0.001)
	}
}
