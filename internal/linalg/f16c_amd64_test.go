package linalg

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"geompc/internal/fp16"
	"geompc/internal/prec"
)

// withF16C runs f with the F16C binary16 kernel forced on or off. Like
// forEachWidth, this is a test-only hook: the package itself reads CPUID.
func withF16C(on bool, f func()) {
	useF16C = on
	defer func() { useF16C = hostF16C }()
	f()
}

// f16cSpecials are the values the F16C kernel could round differently from
// fp16.QuantF32 if it rounded differently at all: signed zeros, infinities,
// NaN, the largest binary16 number and the first value past it, binary16
// subnormals (kept by the conversions whatever MXCSR says) and binary32
// subnormals (flushed on entry by DAZ in both kernels).
var f16cSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	65504, -65504, 65520, -65520, 255.875, -256,
	0x1p-24, -0x1p-24, 3 * 0x1p-24, 0x1p-14, -0x1p-15, 1023 * 0x1p-24,
	0x1p-130, -0x1p-140, 0x1p-126, 0x1p-12, -0x1p-12,
}

// TestF16CGemmMatchesGoKernel: the pure-FP16 GEMM through the F16C
// micro-kernel equals the portable kernel bit for bit on 320 random shapes
// with m, n, k in [1, 70], padded leading dimensions, both beta paths, and
// operands salted with f16cSpecials. Where both results are NaN their signs
// are not compared: which NaN an add of two propagates depends on operand
// order, the compiler's choice in the Go kernel.
func TestF16CGemmMatchesGoKernel(t *testing.T) {
	if !hostF16C {
		t.Skip("this host has no F16C")
	}
	rng := rand.New(rand.NewPCG(0xf16c, 0x16))
	salted := func(rows, ld int, scale float64, density int) []float64 {
		m := randMat(rng, rows, ld)
		for i := range m {
			m[i] *= scale
			if rng.IntN(density) == 0 {
				m[i] = f16cSpecials[rng.IntN(len(f16cSpecials))]
			}
		}
		return m
	}
	for trial := 0; trial < 320; trial++ {
		m, n, k := 1+rng.IntN(70), 1+rng.IntN(70), 1+rng.IntN(70)
		lda, ldb, ldc := k+rng.IntN(3), k+rng.IntN(3), n+rng.IntN(3)
		// The magnitudes cycle through ordinary, overflowing and
		// underflowing products; the salt through none, sparse and dense.
		scale := []float64{1, 300, 0x1p-9}[trial%3]
		density := []int{1 << 30, 40, 7}[trial/3%3]
		a, b, c := salted(m, lda, scale, density), salted(n, ldb, scale, density), salted(m, ldc, 1, density)
		for _, ab := range [][2]float64{{-1, 1}, {0.5, 0}, {1.25, -0.75}} {
			got, want := append([]float64(nil), c...), append([]float64(nil), c...)
			withF16C(true, func() { GemmNTPrec(prec.FP16, m, n, k, ab[0], a, lda, b, ldb, ab[1], got, ldc) })
			withF16C(false, func() { GemmNTPrec(prec.FP16, m, n, k, ab[0], a, lda, b, ldb, ab[1], want, ldc) })
			for i := range want {
				if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
					continue
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d m=%d n=%d k=%d alpha=%g beta=%g: element %d = %g (%#x) with F16C, %g (%#x) in Go",
						trial, m, n, k, ab[0], ab[1], i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// f16cRoundTrip checks the kernel's rounding of the eight products 1·x[jj]
// and of the eight −1·x[jj] (exact, so the binary32 values rounded are ±x
// themselves) against fp16.QuantF32, and describes the first difference. The
// sum s = fl16(0 + q) is a second round trip, of a binary16 value. The
// caller is inside the flush region the GEMM runs in. NaNs compare as NaNs:
// the conversions keep a payload QuantF32 clears, and the GEMM never sees
// one — its operands are QuantF32 outputs and the NaNs arithmetic makes
// have none.
func f16cRoundTrip(x *[8]float32) string {
	one := [4]float32{1, -1, 1, -1}
	var s [32]float32
	dotNT4x8f16(1, one[:], x[:], &s)
	for r := 0; r < 2; r++ {
		for jj, v := range x {
			want := fp16.QuantF32(0 + fp16.QuantF32(one[r]*v))
			if got := s[8*r+jj]; math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
				return fmt.Sprintf("F16C round trip of %g (%#08x): %#08x, QuantF32 gives %#08x",
					one[r]*v, math.Float32bits(one[r]*v), math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
	return ""
}

// TestF16CRoundTripExhaustive: VCVTPS2PH $0 + VCVTPH2PS is fp16.QuantF32 —
// at every float32 exponent, both signs, four patterns of the kept mantissa
// bits, with the discarded low bits swept around every rounding boundary
// (ties, one ulp either side, all-zero, all-one); and, below 2⁻¹⁴ where
// binary16 rounds at a fixed 2⁻²⁴, over a strided sweep of the whole
// mantissa. TestF16CRoundTripExhaustiveAll covers all 2³² values.
func TestF16CRoundTripExhaustive(t *testing.T) {
	if !hostF16C {
		t.Skip("this host has no F16C")
	}
	defer leaveFlush32(enterFlush32())
	var x [8]float32
	lows := []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x1fff, 0x2000, 0x2001, 0x2fff, 0x3000, 0x3001, 0x3fff}
	for e := uint32(0); e < 256; e++ {
		for _, hi := range []uint32{0, 1, 0x155, 0x1ff} {
			for i := 0; i < len(lows); i += 8 {
				for jj := range x {
					x[jj] = math.Float32frombits(e<<23 | hi<<14 | lows[(i+jj)%len(lows)])
				}
				if bad := f16cRoundTrip(&x); bad != "" {
					t.Fatal(bad)
				}
			}
		}
	}
	for e := uint32(127 - 27); e < 127-13; e++ {
		for lo := uint32(0); lo < 1<<23-8; lo += 1031 {
			for jj := range x {
				x[jj] = math.Float32frombits(e<<23 | lo + uint32(jj))
			}
			if bad := f16cRoundTrip(&x); bad != "" {
				t.Fatal(bad)
			}
		}
	}
}

// TestF16COperandLayout: an FP16 operand carries the B side interleaved by
// eight whether or not the F16C kernel will run it — dot16Go reads the same
// blocks — and the other formats carry theirs at nbOf[float32]().
func TestF16COperandLayout(t *testing.T) {
	if !hostF16C {
		t.Skip("this host has no F16C")
	}
	const rows, k = 11, 5
	src := make([]float64, rows*k)
	for i := range src {
		src[i] = float64(i + 1)
	}
	check := func(p prec.Precision, nb int) {
		var o Operand
		o.Pack(p, rows, k, src, k, true)
		defer o.Release()
		blocks := (rows + nb - 1) / nb
		if len(o.f32.bp) != blocks*nb*k {
			t.Fatalf("%s B side has %d elements, want %d (%d blocks of %d columns)", p, len(o.f32.bp), blocks*nb*k, blocks, nb)
		}
		for j := 0; j < blocks*nb; j++ {
			for l := 0; l < k; l++ {
				want := float32(0)
				if j < rows {
					want = float32(src[j*k+l])
				}
				if got := o.f32.bp[j/nb*nb*k+nb*l+j%nb]; got != want {
					t.Fatalf("%s: B column %d depth %d = %g, want %g", p, j, l, got, want)
				}
			}
		}
	}
	for _, on := range []bool{false, true} {
		withF16C(on, func() { check(prec.FP16, 8) })
	}
	check(prec.FP32, nbOf[float32]())
}
