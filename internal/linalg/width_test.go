package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"geompc/internal/fp16"
	"geompc/internal/prec"
)

// sameBits fails the test at the first element of got whose bit pattern is
// not that of the reference.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %g (%#x), reference %g (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// The naive kernels: the triple loops every blocked, packed or vectorized
// form must reproduce bit for bit. Each output element subtracts or adds
// its products in increasing l, one rounding per operation.

func naiveGemmNT(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += a[i*lda+l] * b[j*ldb+l]
			}
			if beta == 0 {
				c[i*ldc+j] = alpha * s
			} else {
				c[i*ldc+j] = alpha*s + beta*c[i*ldc+j]
			}
		}
	}
}

func naiveSyrkLN(n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	for i := 0; i < n; i++ {
		naiveGemmNT(1, i+1, k, alpha, a[i*lda:], lda, a, lda, beta, c[i*ldc:], ldc)
	}
}

func naiveTrsmRLT(m, n int, a []float64, lda int, b []float64, ldb int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := b[i*ldb+j]
			for l := 0; l < j; l++ {
				s -= b[i*ldb+l] * a[j*lda+l]
			}
			b[i*ldb+j] = s / a[j*lda+j]
		}
	}
}

// naiveGemmNT32 is the float32-accumulate GEMM: every operand rounded to
// binary32 and through quant (none for FP32) once, every operation in
// binary32, C combined as alpha·s + beta·C (C not read when beta == 0).
func naiveGemmNT32(quant func(float32) float32, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	q := func(v float64) float32 {
		if quant == nil {
			return float32(v)
		}
		return quant(float32(v))
	}
	al, be := float32(alpha), float32(beta)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += q(a[i*lda+l]) * q(b[j*ldb+l])
			}
			if beta == 0 {
				c[i*ldc+j] = float64(al * s)
			} else {
				c[i*ldc+j] = float64(al*s + be*float32(c[i*ldc+j]))
			}
		}
	}
}

// naiveGemmNT16 is the pure-FP16 GEMM: operands, alpha and beta rounded to
// binary16, and every product and sum rounded to binary16 after its binary32
// operation.
func naiveGemmNT16(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	h := fp16.QuantF32
	alf, bef := h(float32(alpha)), h(float32(beta))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s = h(s + h(h(float32(a[i*lda+l]))*h(float32(b[j*ldb+l]))))
			}
			t := h(alf * s)
			if beta != 0 {
				t = h(t + h(bef*h(float32(c[i*ldc+j]))))
			}
			c[i*ldc+j] = float64(t)
		}
	}
}

// quant32 is the input quantizer of each float32-accumulate format.
var quant32 = map[prec.Precision]func(float32) float32{
	prec.FP32: nil, prec.TF32: fp16.TF32Round, prec.BF16x32: fp16.BF16Round, prec.FP16x32: fp16.QuantF32,
}

// naivePotrfLower returns the first pivot that is not positive, and its
// value, or −1 once the whole matrix is factored.
func naivePotrfLower(n int, a []float64, lda int) (int, float64) {
	for j := 0; j < n; j++ {
		d := a[j*lda+j]
		for l := 0; l < j; l++ {
			d -= a[j*lda+l] * a[j*lda+l]
		}
		if !(d > 0) {
			return j, d
		}
		d = math.Sqrt(d)
		a[j*lda+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a[i*lda+j]
			for l := 0; l < j; l++ {
				s -= a[i*lda+l] * a[j*lda+l]
			}
			a[i*lda+j] = s * inv
		}
	}
	return -1, 0
}

// naiveTrsmRLT32 is the float32 triangular solve: operands rounded to
// binary32 once, every operation in binary32.
func naiveTrsmRLT32(m, n int, a []float64, lda int, b []float64, ldb int) {
	for i := 0; i < m; i++ {
		bi := make([]float32, n)
		for j := range bi {
			bi[j] = float32(b[i*ldb+j])
		}
		for j := range bi {
			s := bi[j]
			for l := 0; l < j; l++ {
				s -= bi[l] * float32(a[j*lda+l])
			}
			bi[j] = s / float32(a[j*lda+j])
		}
		for j, v := range bi {
			b[i*ldb+j] = float64(v)
		}
	}
}

// TestWidthKernelsMatchNaiveLoops: the GEMM in every format (FP64 on both
// beta paths per shape, the others on one, in turn), SYRK, TRSM (and the
// float32 TRSM) and POTRF equal the naive loops bit for bit on 200 random
// shapes with m, n, k in [1, 80] — sizes that are not a multiple of any
// lane count among them, m mod 4 taking every value — and padded leading
// dimensions, at every width.
func TestWidthKernelsMatchNaiveLoops(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewPCG(0x77, 0x1d))
		for trial := 0; trial < 200; trial++ {
			m, n, k := 1+rng.IntN(80), 1+rng.IntN(80), 1+rng.IntN(80)
			lda, ldb, ldc := k+rng.IntN(3), k+rng.IntN(3), n+rng.IntN(3)
			a, b, c := randMat(rng, m, lda), randMat(rng, n, ldb), randMat(rng, m, ldc)
			for _, ab := range [][2]float64{{-1, 1}, {0.5, 0}, {1.25, -0.75}} {
				got, want := append([]float64(nil), c...), append([]float64(nil), c...)
				GemmNTPrec(prec.FP64, m, n, k, ab[0], a, lda, b, ldb, ab[1], got, ldc)
				naiveGemmNT(m, n, k, ab[0], a, lda, b, ldb, ab[1], want, ldc)
				sameBits(t, "GemmNT", got, want)
			}
			ab := [][2]float64{{-1, 1}, {0.5, 0}, {1.25, -0.75}}[trial%3]
			for _, p := range []prec.Precision{prec.FP32, prec.TF32, prec.BF16x32, prec.FP16x32, prec.FP16} {
				got, want := append([]float64(nil), c...), append([]float64(nil), c...)
				GemmNTPrec(p, m, n, k, ab[0], a, lda, b, ldb, ab[1], got, ldc)
				if p == prec.FP16 {
					naiveGemmNT16(m, n, k, ab[0], a, lda, b, ldb, ab[1], want, ldc)
				} else {
					naiveGemmNT32(quant32[p], m, n, k, ab[0], a, lda, b, ldb, ab[1], want, ldc)
				}
				sameBits(t, "GemmNT "+p.String(), got, want)
			}

			cs := randMat(rng, n, ldc)
			got, want := append([]float64(nil), cs...), append([]float64(nil), cs...)
			syrkLN(n, k, -1, b, ldb, 1, got, ldc)
			naiveSyrkLN(n, k, -1, b, ldb, 1, want, ldc)
			sameBits(t, "SyrkLN", got, want)

			// A triangle with a dominant diagonal; its strict upper part is
			// NaN, which no kernel may read into a result.
			tri := randMat(rng, n, ldc)
			for i := 0; i < n; i++ {
				tri[i*ldc+i] = 2 + math.Abs(tri[i*ldc+i])
				for j := i + 1; j < n; j++ {
					tri[i*ldc+j] = math.NaN()
				}
			}
			got, want = append([]float64(nil), c...), append([]float64(nil), c...)
			TrsmRLT(m, n, tri, ldc, got, ldc)
			naiveTrsmRLT(m, n, tri, ldc, want, ldc)
			sameBits(t, "TrsmRLT", got, want)
			got, want = append([]float64(nil), c...), append([]float64(nil), c...)
			TrsmRLT32(m, n, tri, ldc, got, ldc)
			naiveTrsmRLT32(m, n, tri, ldc, want, ldc)
			sameBits(t, "TrsmRLT32", got, want)

			spd := make([]float64, n*ldc)
			naiveGemmNT(n, n, k, 1, b, ldb, b, ldb, 0, spd, ldc)
			for i := 0; i < n; i++ {
				spd[i*ldc+i] += float64(n)
			}
			got, want = append([]float64(nil), spd...), append([]float64(nil), spd...)
			if err := PotrfLower(n, got, ldc); err != nil {
				t.Fatalf("PotrfLower n=%d: %v", n, err)
			}
			if j, _ := naivePotrfLower(n, want, ldc); j >= 0 {
				t.Fatalf("naive POTRF n=%d: pivot %d not positive", n, j)
			}
			sameBits(t, "PotrfLower", got, want)
			if t.Failed() {
				t.Fatalf("first failure at trial %d: m=%d n=%d k=%d", trial, m, n, k)
			}
		}
	})
}

// TestWidthPotrfPivot: on a matrix whose pivot p is not positive, PotrfLower
// reports the pivot and the value the naive loop stops at, at every width —
// p at the first column, inside a lane block, in the last n mod 4 columns
// that run the whole recurrence in lanes, and past the first blocks at
// n = 200; negative, NaN and an exactly zero pivot.
func TestWidthPotrfPivot(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		for _, c := range []struct {
			n, p int
			how  string
		}{
			{61, 0, "negative"}, {61, 37, "negative"}, {61, 37, "NaN"}, {51, 49, "negative"},
			{51, 50, "zero"}, {200, 123, "negative"}, {200, 199, "NaN"}, {200, 130, "zero"},
		} {
			rng := rand.New(rand.NewPCG(uint64(c.n), uint64(c.p)))
			a := spdMat(rng, c.n)
			ref := append([]float64(nil), a...)
			naivePotrfLower(c.p+1, ref, c.n) // row p's L[p][l], l < p
			d := a[c.p*c.n+c.p]
			for l := 0; l < c.p; l++ {
				d -= ref[c.p*c.n+l] * ref[c.p*c.n+l]
			}
			switch c.how {
			case "negative":
				a[c.p*c.n+c.p] -= d + 1
			case "NaN":
				a[c.p*c.n+c.p] = math.NaN()
			case "zero": // row p zero up to the diagonal: every subtraction is of 0
				clear(a[c.p*c.n:][:c.p+1])
			}
			want := append([]float64(nil), a...)
			j, v := naivePotrfLower(c.n, want, c.n)
			if j != c.p || (c.how == "zero" && v != 0) {
				t.Fatalf("n=%d %s pivot %d: the naive loop stops at %d (%g)", c.n, c.how, c.p, j, v)
			}
			err := PotrfLower(c.n, a, c.n)
			if wantErr := fmt.Sprintf("%v: pivot %d is %g", ErrNotPositiveDefinite, j, v); err == nil || err.Error() != wantErr || !errors.Is(err, ErrNotPositiveDefinite) {
				t.Errorf("n=%d %s pivot %d: err = %v, want %q", c.n, c.how, c.p, err, wantErr)
			}
		}
	})
}

// TestWidthLaneKernel: the assembled lane kernels equal lanesGo bit for bit, on
// float64 and on float32 lanes (twice as many), in every mode, at every
// width — lanePivot with the coefficients read from the lanes themselves,
// as PotrfLower reads them, and with a pivot that stops it.
func TestWidthLaneKernel(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewPCG(0x1a, 0x9e))
		for trial := 0; trial < 150; trial++ {
			n := 1 + rng.IntN(40)
			l0 := rng.IntN(n)
			j0 := l0 + rng.IntN(n-l0)
			mode := trial % 3
			for _, nl := range []int{vecWidth.nb(), 2 * vecWidth.nb()} {
				if mode == lanePivot && n-j0 > nl {
					continue // the pivots of a group are its own lanes
				}
				x, a := randMat(rng, n, nl), randMat(rng, n, n)
				rs, cs := n, 1
				for i := 0; i < n; i++ {
					a[i*n+i] = 2 + math.Abs(a[i*n+i])
				}
				if mode == lanePivot {
					rs, cs = 1, nl
					for j := j0; j < n; j++ {
						x[j*nl+j-j0] += 1000
					}
					if trial%4 == 2 {
						x[(n-1)*nl+n-1-j0] = -1
					}
				}
				what := fmt.Sprintf("mode %d, %d lanes, n=%d l0=%d j0=%d", mode, nl, n, l0, j0)
				if nl == vecWidth.nb() {
					laneCase(t, what, lanes[float64], nl, x, a, l0, j0, n, rs, cs, mode)
				} else {
					laneCase(t, what, lanes[float32], nl, x, a, l0, j0, n, rs, cs, mode)
				}
			}
		}
	})
}

// laneCase runs kern and lanesGo on the same lanes x and coefficients a
// (a(j, l) = a[j·rs + l·cs]; for lanePivot x itself), converted to T, and
// fails the test unless both finish as many columns with the same bits.
func laneCase[T float32 | float64](t *testing.T, what string, kern func(x, a []T, l0, j0, j1, rs, cs, mode int) int,
	nl int, x64, a64 []float64, l0, j0, j1, rs, cs, mode int) {
	t.Helper()
	run := func(f func(x, a []T, l0, j0, j1, rs, cs, mode int) int) ([]float64, int) {
		x, a := make([]T, len(x64)), make([]T, len(a64))
		for i, v := range x64 {
			x[i] = T(v)
		}
		for i, v := range a64 {
			a[i] = T(v)
		}
		coef := x[l0*nl:]
		if mode != lanePivot {
			coef = a[j0*rs+l0*cs:]
		}
		k := f(x, coef, l0, j0, j1, rs, cs, mode)
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = float64(v)
		}
		return out, k
	}
	want, wk := run(func(x, a []T, l0, j0, j1, rs, cs, mode int) int {
		return lanesGo(nl, x, a, l0, j0, j1, rs, cs, mode)
	})
	got, gk := run(kern)
	if gk != wk {
		t.Fatalf("%s: %d columns finished, lanesGo %d", what, gk, wk)
	}
	sameBits(t, what, got, want)
}

// tileCholesky factors the NT×NT lower tile matrix in place with the
// package's tile kernels in precision p — Algorithm 1 as internal/cholesky
// composes it. packed selects the GEMM entry: operands converted once per
// panel tile and shared by its GEMMs, or packed per call.
func tileCholesky(t *testing.T, p prec.Precision, nt, ts int, tiles [][]float64, packed bool) {
	at := func(i, j int) []float64 { return tiles[i*(i+1)/2+j] }
	for k := 0; k < nt; k++ {
		if err := PotrfLower(ts, at(k, k), ts); err != nil {
			t.Fatal(err)
		}
		ops := make([]Operand, nt)
		for m := k + 1; m < nt; m++ {
			TrsmRLTPrec(prec.FP64, ts, ts, at(k, k), ts, at(m, k), ts)
			syrkLN(ts, ts, -1, at(m, k), ts, 1, at(m, m), ts)
			ops[m].Pack(p, ts, ts, at(m, k), ts, true)
		}
		for m := k + 2; m < nt; m++ {
			for n := k + 1; n < m; n++ {
				if packed {
					GemmNTPacked(-1, &ops[m], &ops[n], 1, at(m, n), ts)
				} else {
					GemmNTPrec(p, ts, ts, ts, -1, at(m, k), ts, at(n, k), ts, 1, at(m, n), ts)
				}
			}
		}
		for m := range ops {
			ops[m].Release()
		}
	}
}

// TestWidthTileCholesky: a tile Cholesky composed from the package's
// kernels (NT = 4, tile 49: a zero-padded last block at every width) leaves
// the same factor bits at every width, through either GEMM entry, for FP64
// and for a float32-accumulate GEMM format.
func TestWidthTileCholesky(t *testing.T) {
	const nt, ts = 4, 49
	build := func() [][]float64 {
		rng := splitmix64(0x7c)
		n := nt * ts
		dense := goldenSPD(&rng, n)
		var tiles [][]float64
		for i := 0; i < nt; i++ {
			for j := 0; j <= i; j++ {
				tl := make([]float64, ts*ts)
				for r := 0; r < ts; r++ {
					copy(tl[r*ts:][:ts], dense[(i*ts+r)*n+j*ts:])
				}
				tiles = append(tiles, tl)
			}
		}
		return tiles
	}
	digest := func(tiles [][]float64) uint64 {
		h := uint64(14695981039346656037)
		for _, tl := range tiles {
			h = (h ^ fnv1a64(tl)) * 1099511628211
		}
		return h
	}
	for _, p := range []prec.Precision{prec.FP64, prec.FP16x32} {
		var want uint64
		forEachWidth(t, func(t *testing.T) {
			for _, packed := range []bool{false, true} {
				tiles := build()
				tileCholesky(t, p, nt, ts, tiles, packed)
				got := digest(tiles)
				if want == 0 {
					want = got // the pure-Go reference, packed per call
				}
				if got != want {
					t.Errorf("%s packed=%v: factor digest %#x, want %#x (the pure-Go reference)", p, packed, got, want)
				}
			}
		})
	}
}

// rowSpecials are the inputs a vector conversion or combine could treat
// differently from its scalar Go form if it differed at all: signed zeros,
// infinities, NaN, float64 subnormals, values that are binary32 subnormals
// (flushed inside the flush region, kept outside it), binary32 overflow,
// binary16 overflow, subnormals and the smallest values that round to zero,
// and ties of both roundings.
var rowSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -1e-310, 1e-40, -0x1p-140, 0x1p-149, 0x1p-127,
	3.5e38, -1e39, 65504, 65520, -65519.99, 1e5,
	0x1p-24, -0x1p-25, 0x1p-26, 3 * 0x1p-25, 0x1p-14, 1023 * 0x1p-24,
	1 + 0x1p-24, 1 + 3*0x1p-24, 1 + 0x1p-11, -(1 + 3*0x1p-11), 2049, 4097,
}

// rowInput returns n values of mixed magnitude, every third one a special.
func rowInput(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = (rng.Float64()*2 - 1) * math.Ldexp(1, rng.IntN(40)-20)
		if rng.IntN(3) == 0 {
			x[i] = rowSpecials[rng.IntN(len(rowSpecials))]
		}
	}
	return x
}

// sameBitsOrNaN is sameBits on values of either precision, with any NaN
// matching any NaN: a binary16 round trip keeps a payload fp16.QuantF32
// clears, and which of two NaN operands an add returns is operand order.
func sameBitsOrNaN[T float32 | float64](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %g (%#x), Go form %g (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestWidthRowKernels: the row kernels — conversion to binary32 and to
// binary16 (as float32, or widened back to float64; Quantize against
// prec.Quantize), the binary32 transposes (float32, float64 narrowed in,
// widened out) and the binary32 and binary16 combines, with and without C
// — equal their Go forms bit for bit at every width, inside the flush
// region and outside it, on shapes 1, 7, 16, 49 and 64 with padded strides
// and rowSpecials among the inputs.
func TestWidthRowKernels(t *testing.T) {
	shapes := []int{1, 7, 16, 49, 64}
	forEachWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewPCG(0x20, 0x46))
		for _, flush := range []bool{false, true} {
			func() {
				if flush {
					defer leaveFlush32(enterFlush32())
				}
				for _, rows := range shapes {
					for _, cols := range shapes {
						what := fmt.Sprintf("flush=%v %d×%d", flush, rows, cols)
						rowKernelCase(t, rng, what, rows, cols)
					}
				}
			}()
		}
	})
}

func rowKernelCase(t *testing.T, rng *rand.Rand, what string, rows, cols int) {
	t.Helper()
	lds, ldd := cols+rng.IntN(3), cols+rng.IntN(3)
	src := rowInput(rng, rows*lds)
	for _, h16 := range []bool{false, true} {
		got32, want32 := make([]float32, rows*ldd), make([]float32, rows*ldd)
		convert(rows, cols, src, lds, got32, ldd, h16)
		convertGo(rows, cols, src, lds, want32, ldd, h16)
		sameBitsOrNaN(t, fmt.Sprintf("%s convert to float32 h16=%v", what, h16), got32, want32)
		got64, want64 := make([]float64, rows*ldd), make([]float64, rows*ldd)
		convert(rows, cols, src, lds, got64, ldd, h16)
		convertGo(rows, cols, src, lds, want64, ldd, h16)
		sameBitsOrNaN(t, fmt.Sprintf("%s convert to float64 h16=%v", what, h16), got64, want64)
	}

	for _, p := range []prec.Precision{prec.FP32, prec.FP16x32, prec.FP16} {
		got := Quantize(append([]float64(nil), src...), p)
		sameBitsOrNaN(t, what+" Quantize "+p.String(), got, prec.Quantize(append([]float64(nil), src...), p))
	}

	// The transposes: dst is cols×rows with stride ldt.
	ldt := rows + rng.IntN(3)
	src32 := make([]float32, rows*lds)
	convertGo(rows, lds, src, lds, src32, lds, false)
	gotT, wantT := make([]float32, cols*ldt), make([]float32, cols*ldt)
	transpose(rows, cols, src32, lds, gotT, ldt)
	transposeGo(rows, cols, src32, lds, wantT, ldt)
	sameBitsOrNaN(t, what+" transpose float32", gotT, wantT)
	transpose(rows, cols, src, lds, gotT, ldt)
	transposeGo(rows, cols, src, lds, wantT, ldt)
	sameBitsOrNaN(t, what+" transpose float64 → float32", gotT, wantT)
	gotW, wantW := make([]float64, cols*ldt), make([]float64, cols*ldt)
	transpose(rows, cols, src32, lds, gotW, ldt)
	transposeGo(rows, cols, src32, lds, wantW, ldt)
	sameBitsOrNaN(t, what+" transpose float32 → float64", gotW, wantW)

	// The combines, on a row of cols sums.
	s := src32[:cols]
	c := rowInput(rng, cols)
	for _, ab := range [][2]float32{{-1, 1}, {0.5, 0}, {1.25, -0.75}, {0x1p-120, 0x1p-10}} {
		for _, h16 := range []bool{false, true} {
			for _, readC := range []bool{false, true} {
				got, want := append([]float64(nil), c...), append([]float64(nil), c...)
				combine(got, s, ab[0], ab[1], readC, h16)
				combineGo(want, s, ab[0], ab[1], readC, h16)
				sameBitsOrNaN(t, fmt.Sprintf("%s combine al=%g be=%g readC=%v h16=%v", what, ab[0], ab[1], readC, h16), got, want)
			}
		}
	}
}
