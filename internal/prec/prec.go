// Package prec defines the floating-point precision formats the framework
// can store, compute, and communicate in, together with their unit
// roundoffs, storage widths and conversion rules.
//
// The formats mirror §IV of the paper: FP64, FP32, TF32, FP16_32 (half
// inputs, float32 compute), BF16_32 (bfloat16 inputs, float32 compute) and
// FP16 (half inputs, half compute). The adaptive Cholesky framework uses the
// subset {FP64, FP32, FP16_32, FP16}; TF32 and BF16_32 appear only in the
// GEMM benchmark (Fig 1).
package prec

import "fmt"

// Precision identifies a floating-point format for storage, computation or
// communication. The zero value is FP64. Values are ordered from highest
// precision (FP64) to lowest (FP16): p1 < p2 means p1 is *higher* precision.
type Precision uint8

const (
	// FP64 is IEEE binary64.
	FP64 Precision = iota
	// FP32 is IEEE binary32.
	FP32
	// TF32 is Nvidia TensorFloat-32: float32 range, 10-bit significand
	// inputs, float32 accumulation.
	TF32
	// BF16x32 (BF16_32 in the paper) uses bfloat16 inputs with float32
	// accumulation.
	BF16x32
	// FP16x32 (FP16_32 in the paper) uses binary16 inputs with float32
	// accumulation.
	FP16x32
	// FP16 uses binary16 inputs, outputs, and accumulation.
	FP16
	numPrecisions
)

// Count is the number of defined precision formats.
const Count = int(numPrecisions)

// String returns the paper's name for the format.
func (p Precision) String() string {
	switch p {
	case FP64:
		return "FP64"
	case FP32:
		return "FP32"
	case TF32:
		return "TF32"
	case BF16x32:
		return "BF16_32"
	case FP16x32:
		return "FP16_32"
	case FP16:
		return "FP16"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// Unit roundoffs. FP16_32 and BF16_32 do not have a classical machine
// epsilon: their error bound is dominated by input quantization but improved
// by exact float32 accumulation (Blanchard et al. 2020). Following §VII-A,
// the framework uses an experimentally determined effective epsilon for
// FP16_32, smaller than pure FP16's.
const (
	epsFP64    = 0x1p-53
	epsFP32    = 0x1p-24
	epsTF32    = 0x1p-11
	epsBF16x32 = 0x1p-9  // 8-bit significand input quantization
	epsFP16x32 = 0x1p-13 // effective, per §VII-A (between u16 and u32)
	epsFP16    = 0x1p-11
)

// Eps returns the unit roundoff u_low used in the Higham–Mary tile-selection
// rule ‖A_ij‖·NT/‖A‖ ≤ u_req/u_low.
func (p Precision) Eps() float64 {
	switch p {
	case FP64:
		return epsFP64
	case FP32:
		return epsFP32
	case TF32:
		return epsTF32
	case BF16x32:
		return epsBF16x32
	case FP16x32:
		return epsFP16x32
	case FP16:
		return epsFP16
	default:
		panic("prec: invalid precision " + p.String())
	}
}

// InputBytes returns the storage width in bytes of one matrix element held
// in this format's *input* representation — the width that matters for
// network and host-to-device transfers.
func (p Precision) InputBytes() int {
	switch p {
	case FP64:
		return 8
	case FP32, TF32:
		return 4
	case BF16x32, FP16x32, FP16:
		return 2
	default:
		panic("prec: invalid precision " + p.String())
	}
}

// StoragePrecision returns the precision a tile whose kernels run in p is
// stored in. Per §V, FP16_32 and FP16 are supported only by the GEMM kernel
// on Nvidia GPUs; TRSM must run in FP32 on those tiles, so the tile is
// generated and stored in FP32.
func (p Precision) StoragePrecision() Precision {
	switch p {
	case FP64:
		return FP64
	case FP32, TF32, BF16x32, FP16x32, FP16:
		return FP32
	default:
		panic("prec: invalid precision " + p.String())
	}
}

// Format returns the element format p's data takes on the wire and in a
// packed kernel operand: FP64 and FP32 as themselves, TF32 as a full FP32
// word, and every half-input format — FP16_32, FP16 and also BF16_32 — as
// binary16. No format is bfloat16, so a BF16_32 tile would travel and be
// probed as binary16; the Cholesky ladder excludes BF16_32 (§IV).
func (p Precision) Format() Precision {
	switch p {
	case FP64, FP32:
		return p
	case TF32:
		return FP32
	}
	return FP16
}

// Lower reports whether p is a lower precision (larger unit roundoff) than q.
func (p Precision) Lower(q Precision) bool { return p.Eps() > q.Eps() }

// Higher returns the higher-precision (smaller roundoff) of p and q. It is
// the get_higher_precision helper of Algorithm 2.
func Higher(p, q Precision) Precision {
	if p.Eps() <= q.Eps() {
		return p
	}
	return q
}

// CholeskySet is the precision ladder the adaptive Cholesky framework
// selects from, ordered highest to lowest (§IV's conclusion: FP64, FP32,
// FP16_32, FP16; BF16_32 dropped for performance parity with FP16_32, TF32
// subsumed by FP16_32 behaviour).
var CholeskySet = []Precision{FP64, FP32, FP16x32, FP16}

// All lists every defined format, highest precision first.
var All = []Precision{FP64, FP32, TF32, BF16x32, FP16x32, FP16}
