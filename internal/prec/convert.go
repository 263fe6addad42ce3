package prec

// Quantize rounds every element of x through the input representation of
// precision p, in place, and returns x. A tile "converted to FP16" for
// communication is exactly its FP16-quantized values; converting back up is
// lossless, so quantization is the complete numerical effect of a precision
// down-cast.
func Quantize(x []float64, p Precision) []float64 {
	if round := formats[p].round; round != nil {
		for i, v := range x {
			x[i] = float64(round(float32(v)))
		}
	}
	return x
}

// Bytes returns the number of bytes n elements occupy in precision p's
// input representation.
func Bytes(n int, p Precision) int64 { return int64(n) * int64(p.InputBytes()) }
