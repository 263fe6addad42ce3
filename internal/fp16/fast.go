package fp16

import "math"

// Fast binary16 rounding for the hot GEMM paths.
//
// The pure-FP16 tile kernel rounds its accumulator to binary16 after every
// multiply and every add. Doing that through FromFloat32/ToFloat32 costs two
// branchy conversion calls per operation; QuantF32 below performs the same
// round-to-nearest-even in a handful of branch-light bit operations and one
// float32 add/sub pair, small enough for the compiler to inline into the
// kernel loop. TestQuantF32Exhaustive proves bit-equivalence against the
// reference conversion over every binary16 operand and the full rounding
// boundary set.

const (
	signMask32 = 0x80000000
	// quantOverflow is the float32 bit pattern of 65520, the smallest
	// magnitude that rounds beyond HalfMax to infinity under RNE.
	quantOverflow = 0x477ff000
	// quantSubExp is the exponent field of 2^-14: inputs below the normal
	// binary16 range round at the fixed subnormal granularity 2^-24.
	quantSubExp = 0x38800000
)

// QuantF32 returns the nearest binary16 value of f as a float32, equal to
// FromFloat32(f).ToFloat32() bit-for-bit for every float32 input (including
// NaNs, which canonicalize to sign|0x7fc00000 exactly as the double
// conversion does). The rounding uses the sign-matched magic-number trick: for
// f with exponent e, adding ±2^(e+13) forces the float32 adder to round f at
// binary16's ulp 2^(e-10) with the hardware's round-to-nearest-even, and the
// subtraction is exact.
func QuantF32(f float32) float32 {
	b := math.Float32bits(f)
	sign := b & signMask32
	abs := b ^ sign
	if abs >= quantOverflow { // rounds past HalfMax: ±Inf, or NaN
		// Finite overflow and Inf map to ±Inf; NaNs canonicalize exactly
		// like FromFloat32→ToFloat32 (quiet, payload cleared, sign kept) so
		// iterated rounding stays bit-identical to the Half-typed path. The
		// shift term sets the quiet bit iff abs > 0x7f800000 (NaN).
		return math.Float32frombits(sign | 0x7f800000 | (0x7f800000-abs)>>31<<22)
	}
	// A zero result must keep f's sign (the subtraction yields +0 for
	// negative underflow); OR-ing the sign bit back is a no-op otherwise.
	m := math.Float32frombits(sign | quantMagic[abs>>23])
	return math.Float32frombits(math.Float32bits((f+m)-m) | sign)
}

// quantMagic maps a float32 exponent field (abs>>23) to the bits of the
// magic rounding constant 2^(e+13), clamped below at 2^-1 so inputs under
// the normal binary16 range round at the fixed subnormal granularity 2^-24.
// Entries at or above the overflow threshold are never read (the |f| ≥
// 65520 branch returns first).
var quantMagic [256]uint32

func init() {
	for e := range quantMagic {
		exp := uint32(e) << 23
		if exp < quantSubExp {
			exp = quantSubExp
		}
		quantMagic[e] = exp + 13<<23
	}
}
