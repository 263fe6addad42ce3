// Package fp16 provides bit-exact software emulation of the reduced-precision
// floating-point formats used by Nvidia tensor cores: IEEE 754 binary16
// ("half", FP16), bfloat16 (BF16), and TF32 (19-bit TensorFloat). All
// conversions use round-to-nearest-even, matching GPU hardware behaviour.
//
// The emulation is the foundation of the repository's accuracy experiments:
// a value "stored in FP16" is a float32/float64 whose significand has been
// rounded through the target format, so subsequent arithmetic observes
// exactly the quantization a GPU kernel would.
package fp16

import "math"

// Half is an IEEE 754 binary16 value in its raw bit representation:
// 1 sign bit, 5 exponent bits, 10 significand bits.
type Half uint16

// Binary16 format constants.
const (
	// HalfMax is the largest finite binary16 value, 65504.
	HalfMax = 65504.0
	// HalfMin is the smallest positive normal binary16 value, 2^-14.
	HalfMin = 6.103515625e-05
	// HalfSmallestSubnormal is the smallest positive binary16 value, 2^-24.
	HalfSmallestSubnormal = 5.960464477539063e-08
	// HalfEps is the binary16 machine epsilon 2^-10 (distance from 1 to the
	// next representable value). The unit roundoff is HalfEps/2 = 2^-11.
	HalfEps = 0x1p-10
)

// FromFloat32 converts a float32 to binary16 with round-to-nearest-even,
// saturating semantics matching CUDA __float2half_rn for NaN/Inf and
// overflow to ±Inf.
func FromFloat32(f float32) Half {
	b := math.Float32bits(f)
	sign := uint16((b >> 16) & 0x8000)
	exp := int32((b>>23)&0xff) - 127
	man := b & 0x7fffff

	switch {
	case exp == 128: // NaN or Inf
		if man != 0 {
			// Preserve a quiet NaN payload bit so the result is a NaN.
			return Half(sign | 0x7e00)
		}
		return Half(sign | 0x7c00)
	case exp > 15: // overflow to infinity
		return Half(sign | 0x7c00)
	case exp >= -14: // normal range
		// 13 bits of the float32 significand are discarded.
		mant16 := man >> 13
		round := man & 0x1fff
		h := sign | uint16(exp+15)<<10 | uint16(mant16)
		// Round to nearest even: round up if the discarded part exceeds half,
		// or equals half and the kept LSB is odd. Carry may overflow into the
		// exponent, which is exactly correct (1.111..×2^e -> 1.0×2^(e+1)).
		if round > 0x1000 || (round == 0x1000 && mant16&1 == 1) {
			h++
		}
		return Half(h)
	case exp >= -25: // subnormal range
		// Shift in the implicit leading 1, then align to the subnormal scale.
		man |= 0x800000
		shift := uint32(-exp - 14 + 13)
		mant16 := man >> shift
		rem := man & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		h := sign | uint16(mant16)
		if rem > half || (rem == half && mant16&1 == 1) {
			h++
		}
		return Half(h)
	default: // underflow to signed zero
		return Half(sign)
	}
}

// ToFloat32 converts a binary16 value to float32 exactly (the conversion is
// lossless; every binary16 value is representable in binary32).
func (h Half) ToFloat32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h) & 0x3ff

	switch exp {
	case 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalize by shifting the significand up.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | e<<23 | man<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | man<<13) // Inf/NaN
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | man<<13)
	}
}

// IsNaN reports whether h is a NaN.
func (h Half) IsNaN() bool { return h&0x7c00 == 0x7c00 && h&0x3ff != 0 }

// IsInf reports whether h is an infinity.
func (h Half) IsInf() bool { return h&0x7fff == 0x7c00 }

// RoundF32 rounds a float32 through binary16 and back: the returned float32
// is the nearest binary16 value. This is the quantization applied to tile
// data "stored in FP16".
func RoundF32(f float32) float32 { return FromFloat32(f).ToFloat32() }

// BF16Round rounds a float32 to the nearest bfloat16 value (8 exponent bits,
// 7 significand bits) with round-to-nearest-even. NaNs are preserved.
func BF16Round(f float32) float32 {
	b := math.Float32bits(f)
	if b&0x7f800000 == 0x7f800000 { // Inf or NaN: truncation keeps class
		if b&0x7fffff != 0 {
			b |= 0x400000 // quiet the NaN so truncation cannot silence it
		}
		return math.Float32frombits(b &^ 0xffff)
	}
	lsb := (b >> 16) & 1
	b += 0x7fff + lsb
	return math.Float32frombits(b &^ 0xffff)
}

// TF32Round rounds a float32 to the nearest TF32 value (8 exponent bits,
// 10 significand bits) with round-to-nearest-even — the input quantization
// tensor cores apply in TF32 mode. NaNs are preserved.
func TF32Round(f float32) float32 {
	b := math.Float32bits(f)
	if b&0x7f800000 == 0x7f800000 {
		if b&0x7fffff != 0 {
			b |= 0x400000
		}
		return math.Float32frombits(b &^ 0x1fff)
	}
	lsb := (b >> 13) & 1
	b += 0xfff + lsb
	return math.Float32frombits(b &^ 0x1fff)
}

// AddHalf returns the binary16-rounded sum of two binary16 operands, i.e.
// a fused half-precision accumulate step as performed by pure-FP16 tensor
// core accumulation.
func AddHalf(a, b Half) Half {
	return FromFloat32(a.ToFloat32() + b.ToFloat32())
}

// MulHalf returns the binary16-rounded product of two binary16 operands.
func MulHalf(a, b Half) Half {
	return FromFloat32(a.ToFloat32() * b.ToFloat32())
}
