package prec

import "geompc/internal/fp16"

// Quantize rounds every element of x through the input representation of
// precision p, in place, and returns x. A tile "converted to FP16" for
// communication is exactly its FP16-quantized values; converting back up is
// lossless, so quantization is the complete numerical effect of a precision
// down-cast.
func Quantize(x []float64, p Precision) []float64 {
	switch p {
	case FP64:
		return x
	case FP32:
		for i, v := range x {
			x[i] = float64(float32(v))
		}
	case TF32:
		for i, v := range x {
			x[i] = float64(fp16.TF32Round(float32(v)))
		}
	case BF16x32:
		for i, v := range x {
			x[i] = float64(fp16.BF16Round(float32(v)))
		}
	case FP16x32, FP16:
		for i, v := range x {
			x[i] = fp16.Round(v)
		}
	default:
		panic("prec: invalid precision " + p.String())
	}
	return x
}

// Bytes returns the number of bytes n elements occupy in precision p's
// input representation.
func Bytes(n int, p Precision) int64 { return int64(n) * int64(p.InputBytes()) }
