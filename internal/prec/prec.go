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

import (
	"fmt"

	"geompc/internal/fp16"
)

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

// format is one precision format's row of facts: its paper name, unit
// roundoff u_low, input width, storage precision, wire format and the
// binary32 rounding of its input representation.
type format struct {
	name    string
	eps     float64
	bytes   int
	storage Precision
	wire    Precision
	round   func(float32) float32 // nil: binary64, no rounding
}

// formats holds every format's row, indexed by Precision.
//
// FP16_32 and BF16_32 do not have a classical machine epsilon: their error
// bound is dominated by input quantization but improved by exact float32
// accumulation (Blanchard et al. 2020). Following §VII-A, the framework uses
// an experimentally determined effective epsilon for FP16_32 (between u16
// and u32), smaller than pure FP16's; BF16_32's is its 8-bit significand's.
//
// Per §V, FP16_32 and FP16 are supported only by the GEMM kernel on Nvidia
// GPUs; TRSM must run in FP32 on those tiles, so every format below FP64 is
// generated and stored in FP32.
//
// On the wire and in a packed kernel operand FP64 and FP32 go as
// themselves, TF32 as a full FP32 word, and every half-input format —
// FP16_32, FP16 and also BF16_32 — as binary16. No format is bfloat16, so a
// BF16_32 tile would travel and be probed as binary16; the Cholesky ladder
// excludes BF16_32 (§IV).
var formats = [Count]format{
	FP64:    {"FP64", 0x1p-53, 8, FP64, FP64, nil},
	FP32:    {"FP32", 0x1p-24, 4, FP32, FP32, func(f float32) float32 { return f }},
	TF32:    {"TF32", 0x1p-11, 4, FP32, FP32, fp16.TF32Round},
	BF16x32: {"BF16_32", 0x1p-9, 2, FP32, FP16, fp16.BF16Round},
	FP16x32: {"FP16_32", 0x1p-13, 2, FP32, FP16, fp16.RoundF32},
	FP16:    {"FP16", 0x1p-11, 2, FP32, FP16, fp16.RoundF32},
}

// String returns the paper's name for the format.
func (p Precision) String() string {
	if int(p) < Count {
		return formats[p].name
	}
	return fmt.Sprintf("Precision(%d)", uint8(p))
}

// Eps returns the unit roundoff u_low used in the Higham–Mary tile-selection
// rule ‖A_ij‖·NT/‖A‖ ≤ u_req/u_low.
func (p Precision) Eps() float64 { return formats[p].eps }

// InputBytes returns the storage width in bytes of one matrix element held
// in this format's *input* representation — the width that matters for
// network and host-to-device transfers.
func (p Precision) InputBytes() int { return formats[p].bytes }

// StoragePrecision returns the precision a tile whose kernels run in p is
// stored in.
func (p Precision) StoragePrecision() Precision { return formats[p].storage }

// Format returns the element format p's data takes on the wire and in a
// packed kernel operand.
func (p Precision) Format() Precision { return formats[p].wire }

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
