package linalg

import (
	"math"
	"math/rand/v2"
	"testing"

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

func naivePotrfLower(n int, a []float64, lda int) {
	for j := 0; j < n; j++ {
		d := a[j*lda+j]
		for l := 0; l < j; l++ {
			d -= a[j*lda+l] * a[j*lda+l]
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
}

// TestWidthKernelsMatchNaiveLoops: the FP64 GEMM (both beta paths), SYRK,
// TRSM and POTRF equal the naive loops bit for bit on 200 random shapes
// with m, n, k in [1, 80] and padded leading dimensions, at every width.
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

			spd := make([]float64, n*ldc)
			naiveGemmNT(n, n, k, 1, b, ldb, b, ldb, 0, spd, ldc)
			for i := 0; i < n; i++ {
				spd[i*ldc+i] += float64(n)
			}
			got, want = append([]float64(nil), spd...), append([]float64(nil), spd...)
			if err := PotrfLower(n, got, ldc); err != nil {
				t.Fatalf("PotrfLower n=%d: %v", n, err)
			}
			naivePotrfLower(n, want, ldc)
			sameBits(t, "PotrfLower", got, want)
			if t.Failed() {
				t.Fatalf("first failure at trial %d: m=%d n=%d k=%d", trial, m, n, k)
			}
		}
	})
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
