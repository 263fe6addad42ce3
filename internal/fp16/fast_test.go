package fp16

import (
	"math"
	"testing"
)

// quantRef is the reference rounding the fast path must reproduce:
// QuantF32(f) must equal quantRef(f) bit-for-bit for every float32 f
// (NaNs canonicalize identically through both).
func quantRef(f float32) float32 { return FromFloat32(f).ToFloat32() }

func checkQuant(t *testing.T, f float32) {
	got, want := QuantF32(f), quantRef(f)
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("QuantF32(%g = %#08x) = %#08x, want %#08x",
			f, math.Float32bits(f), math.Float32bits(got), math.Float32bits(want))
	}
}

// TestQuantF32Exhaustive sweeps the float32 regions where the rounding logic
// can differ: every binary16 value (fixed points), the rounding-relevant
// mantissa space of every boundary exponent, and a strided sweep of the
// entire 2^32 input space.
func TestQuantF32Exhaustive(t *testing.T) {
	// 1. Every binary16 bit pattern is a fixed point (or canonical NaN).
	for i := 0; i < 1<<16; i++ {
		f := Half(i).ToFloat32()
		checkQuant(t, f)
		if !math.IsNaN(float64(f)) && QuantF32(f) != f {
			t.Fatalf("half %#04x (%g) is not a fixed point", i, f)
		}
	}

	// 2. Mantissa sweep over the boundary exponents: deep subnormal
	// (2^-27..2^-24), the subnormal/normal seam (2^-15..2^-13), mid-range,
	// the overflow seam (2^14..2^16), and the Inf/NaN exponent. The rounding
	// decision depends on the discarded low bits and the kept LSB, so the
	// low 14 mantissa bits are swept fully under a handful of high-bit
	// patterns (all-zero, carry-propagating all-ones, alternating).
	exps := []uint32{100 - 27, 100, 127 - 26, 127 - 25, 127 - 24, 127 - 15, 127 - 14, 127 - 13,
		127, 127 + 14, 127 + 15, 127 + 16, 255}
	his := []uint32{0, 1, 0x155, 0x1ff}
	for _, e := range exps {
		for sign := uint32(0); sign <= 1; sign++ {
			base := sign<<31 | e<<23
			for _, hi := range his {
				for lo := uint32(0); lo < 1<<14; lo++ {
					checkQuant(t, math.Float32frombits(base|hi<<14|lo))
				}
			}
		}
	}

	// 3. Strided sweep across all of float32 (odd stride hits every
	// exponent and a spread of rounding patterns).
	const stride = 10007
	for b := uint64(0); b < 1<<32; b += stride {
		checkQuant(t, math.Float32frombits(uint32(b)))
	}

	// 4. Signed zeros, underflow ties, the overflow knife-edge, specials.
	for _, f := range []float32{0, float32(math.Copysign(0, -1)),
		0x1p-24, 0x1p-25, -0x1p-25, 0x1p-26, -0x1p-26, 65504, 65519.996, -65519.996, 65520, -65520,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		checkQuant(t, f)
	}
	if !math.Signbit(float64(QuantF32(float32(math.Copysign(0, -1))))) {
		t.Fatal("QuantF32(-0) lost the sign of zero")
	}
	if !math.Signbit(float64(QuantF32(-0x1p-26))) {
		t.Fatal("QuantF32 underflow of a negative value must keep the sign")
	}
}

// TestHalfFMAEquivalence drives the issue's operand-pair shapes: a full
// 2^16 sweep of one operand against a fixed partner set covering every
// value class, and a stratified full-cross sample for the add step —
// asserting the fast float32-held FMA steps match AddHalf/MulHalf exactly.
// NaN results compare by class only: which operand's payload a NaN multiply
// propagates is codegen-dependent, identically so for both paths.
func TestHalfFMAEquivalence(t *testing.T) {
	partners := []Half{
		0x0000, 0x8000, // ±0
		0x0001, 0x8001, 0x03ff, 0x83ff, // subnormal edges
		0x0400, 0x8400, // smallest normal
		0x3c00, 0xbc00, // ±1
		0x3c01, 0x4248, 0xc248, // 1+ulp, π-ish
		0x7bff, 0xfbff, // ±HalfMax
		0x7c00, 0xfc00, // ±Inf
		0x7e00, 0xfe01, // NaNs
		0x1000, 0x5000, 0x9000, 0xd000,
	}
	check := func(a, b Half) {
		af, bf := a.ToFloat32(), b.ToFloat32()
		// Multiply step.
		fast := QuantF32(af * bf)
		want := MulHalf(a, b)
		if want.IsNaN() {
			if !FromFloat32(fast).IsNaN() {
				t.Fatalf("mul %#04x×%#04x: fast %#08x is not NaN", a, b, math.Float32bits(fast))
			}
		} else if math.Float32bits(fast) != math.Float32bits(want.ToFloat32()) {
			t.Fatalf("mul %#04x×%#04x: fast %#08x, want %#08x (half %#04x)",
				a, b, math.Float32bits(fast), math.Float32bits(want.ToFloat32()), want)
		}
		// Add (accumulate) step.
		fast = QuantF32(af + bf)
		wantAdd := AddHalf(a, b)
		if wantAdd.IsNaN() {
			if !FromFloat32(fast).IsNaN() {
				t.Fatalf("add %#04x+%#04x: fast %#08x is not NaN", a, b, math.Float32bits(fast))
			}
		} else if math.Float32bits(fast) != math.Float32bits(wantAdd.ToFloat32()) {
			t.Fatalf("add %#04x+%#04x: fast %#08x, want %#08x (half %#04x)",
				a, b, math.Float32bits(fast), math.Float32bits(wantAdd.ToFloat32()), wantAdd)
		}
	}
	// Full 2^16 sweep of operand a against every fixed partner, both orders.
	for i := 0; i < 1<<16; i++ {
		for _, p := range partners {
			check(Half(i), p)
			check(p, Half(i))
		}
	}
	// Stratified full cross: every 97th half pattern against every 89th —
	// co-prime strides make all exponent/sign combinations appear.
	for i := 0; i < 1<<16; i += 97 {
		for j := 0; j < 1<<16; j += 89 {
			check(Half(i), Half(j))
		}
	}
}
