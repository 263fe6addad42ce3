package prec

import (
	"math"
	"testing"
	"testing/quick"

	"geompc/internal/fp16"
)

// TestFormatRows pins every format's row to the paper: u_low (§IV, with
// §VII-A's effective FP16_32 roundoff), input bytes, storage precision (§V)
// and wire format (Algorithm 2). TestOrdering checks only the order of the
// roundoffs, which a wrong value can keep.
func TestFormatRows(t *testing.T) {
	want := []struct {
		p             Precision
		eps           float64
		bytes         int
		storage, wire Precision
	}{
		{FP64, 0x1p-53, 8, FP64, FP64},
		{FP32, 0x1p-24, 4, FP32, FP32},
		{TF32, 0x1p-11, 4, FP32, FP32},
		{BF16x32, 0x1p-9, 2, FP32, FP16},
		{FP16x32, 0x1p-13, 2, FP32, FP16},
		{FP16, 0x1p-11, 2, FP32, FP16},
	}
	if len(want) != Count {
		t.Fatalf("%d rows pinned, %d formats defined", len(want), Count)
	}
	for _, w := range want {
		if got := w.p.Eps(); got != w.eps {
			t.Errorf("%v.Eps() = %g, want %g", w.p, got, w.eps)
		}
		if got := w.p.InputBytes(); got != w.bytes {
			t.Errorf("%v.InputBytes() = %d, want %d", w.p, got, w.bytes)
		}
		if got := w.p.StoragePrecision(); got != w.storage {
			t.Errorf("%v.StoragePrecision() = %v, want %v", w.p, got, w.storage)
		}
		if got := w.p.Format(); got != w.wire {
			t.Errorf("%v.Format() = %v, want %v", w.p, got, w.wire)
		}
	}
}

// TestQuantizeHalfIsReference: the half-input formats round through the
// reference binary16 conversion, bit for bit, on a grid through the
// subnormals, the largest finite half (±65504), the overflow boundary
// (±65520), the infinities and NaN.
func TestQuantizeHalfIsReference(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 0x1p-24, 0x1p-25, 0x1.8p-25, 0x1p-14, 0x1.ff8p-15,
		6.1e-5, 1, 1 + 0x1p-11, 1 + 0x1p-10, math.Pi, 0.1, 1e-7, 3e-8, 2.9e-8,
		65504, -65504, 65519.99, 65520, -65520, 1e6, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := -30; i <= 17; i++ {
		xs = append(xs, math.Ldexp(1.2345678, i), -math.Ldexp(0.987654321, i))
	}
	for _, p := range []Precision{FP16x32, FP16} {
		q := QuantizeCopy(xs, p)
		for i, x := range xs {
			want := float64(fp16.FromFloat32(float32(x)).ToFloat32())
			if math.Float64bits(q[i]) != math.Float64bits(want) {
				t.Errorf("%v: Quantize(%g) = %g, reference %g", p, x, q[i], want)
			}
		}
	}
}

func TestOrdering(t *testing.T) {
	// The ladder must be strictly ordered by unit roundoff.
	ladder := CholeskySet
	for i := 1; i < len(ladder); i++ {
		if !(ladder[i].Eps() > ladder[i-1].Eps()) {
			t.Errorf("%v (eps=%g) not lower precision than %v (eps=%g)",
				ladder[i], ladder[i].Eps(), ladder[i-1], ladder[i-1].Eps())
		}
	}
	if !FP16.Lower(FP64) || FP64.Lower(FP16) {
		t.Error("Lower comparison wrong for FP16/FP64")
	}
	if Higher(FP16, FP32) != FP32 || Higher(FP64, FP16x32) != FP64 {
		t.Error("Higher selection wrong")
	}
}

func TestInputBytes(t *testing.T) {
	want := map[Precision]int{FP64: 8, FP32: 4, TF32: 4, BF16x32: 2, FP16x32: 2, FP16: 2}
	for p, w := range want {
		if got := p.InputBytes(); got != w {
			t.Errorf("%v.InputBytes() = %d, want %d", p, got, w)
		}
	}
	if Bytes(1024, FP16) != 2048 {
		t.Error("Bytes(1024, FP16) != 2048")
	}
}

func TestStoragePrecision(t *testing.T) {
	// §V: FP16-family tiles are stored in FP32 because TRSM cannot run below
	// FP32 on the considered hardware.
	if FP64.StoragePrecision() != FP64 {
		t.Error("FP64 storage must be FP64")
	}
	for _, p := range []Precision{FP32, FP16x32, FP16, TF32, BF16x32} {
		if p.StoragePrecision() != FP32 {
			t.Errorf("%v storage = %v, want FP32", p, p.StoragePrecision())
		}
	}
}

// TestFormat: the element format of every precision on the wire and in a
// packed operand — BF16_32 included, which has no bfloat16 format and goes
// as binary16.
func TestFormat(t *testing.T) {
	want := map[Precision]Precision{
		FP64: FP64, FP32: FP32, TF32: FP32, BF16x32: FP16, FP16x32: FP16, FP16: FP16,
	}
	for _, p := range All {
		if got := p.Format(); got != want[p] {
			t.Errorf("%v.Format() = %v, want %v", p, got, want[p])
		}
		if p.Format().InputBytes() != p.InputBytes() {
			t.Errorf("%v: format %v is %d bytes, the input representation %d", p, p.Format(), p.Format().InputBytes(), p.InputBytes())
		}
	}
}

func TestString(t *testing.T) {
	names := map[Precision]string{
		FP64: "FP64", FP32: "FP32", TF32: "TF32",
		BF16x32: "BF16_32", FP16x32: "FP16_32", FP16: "FP16",
	}
	for p, w := range names {
		if p.String() != w {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), w)
		}
	}
}

func TestQuantizeFP64IsIdentity(t *testing.T) {
	x := []float64{1, math.Pi, -2.5e300, 3e-308}
	y := QuantizeCopy(x, FP64)
	for i := range x {
		if x[i] != y[i] {
			t.Errorf("FP64 quantize changed x[%d]", i)
		}
	}
}

func TestQuantizeErrorBounds(t *testing.T) {
	// For values in the representable range, |q(x)-x| <= 2*eps*|x| for each
	// format (eps here is the table's u_low; factor 2 covers eps-vs-u
	// convention).
	formats := []Precision{FP32, TF32, BF16x32, FP16x32, FP16}
	if err := quick.Check(func(v float64) bool {
		x := math.Mod(v, 1000)
		if math.Abs(x) < 1e-3 {
			return true
		}
		for _, p := range formats {
			q := QuantizeCopy([]float64{x}, p)[0]
			if math.Abs(q-x) > 2*p.Eps()*math.Abs(x) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	if err := quick.Check(func(v float64) bool {
		x := math.Mod(v, 60000)
		for _, p := range All {
			q1 := QuantizeCopy([]float64{x}, p)
			q2 := QuantizeCopy(q1, p)
			if q1[0] != q2[0] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeMonotonePrecision(t *testing.T) {
	// Quantizing to a higher precision must never be worse than to a lower
	// one on the Cholesky ladder.
	xs := []float64{1.000244140625001, math.Pi, 0.1, 123.456, -7.89}
	for _, x := range xs {
		prevErr := 0.0
		for _, p := range CholeskySet {
			q := QuantizeCopy([]float64{x}, p)[0]
			e := math.Abs(q - x)
			if e+1e-18 < prevErr {
				t.Errorf("x=%v: error at %v (%g) below previous ladder step (%g)", x, p, e, prevErr)
			}
			prevErr = e
		}
	}
}

// QuantizeCopy returns a fresh slice holding x quantized to p.
func QuantizeCopy(x []float64, p Precision) []float64 {
	return Quantize(append([]float64(nil), x...), p)
}
