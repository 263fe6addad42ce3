package linalg

import (
	"math"
	"math/rand/v2"
	"testing"

	"geompc/internal/prec"
)

func randMat(rng *rand.Rand, m, n int) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.Float64()*2 - 1
	}
	return a
}

// spdMat returns a well-conditioned SPD matrix A = M·Mᵀ + n·I.
func spdMat(rng *rand.Rand, n int) []float64 {
	m := randMat(rng, n, n)
	a := make([]float64, n*n)
	GemmNT(n, n, n, 1, m, n, m, n, 0, a, n)
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

func gemmNTRef(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += a[i*lda+l] * b[j*ldb+l]
			}
			c[i*ldc+j] = alpha*s + beta*c[i*ldc+j]
		}
	}
}

func TestGemmNTAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {13, 4, 9}, {16, 32, 8}} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := randMat(rng, m, k), randMat(rng, n, k)
		c1, c2 := randMat(rng, m, n), make([]float64, m*n)
		copy(c2, c1)
		GemmNT(m, n, k, -1, a, k, b, k, 1, c1, n)
		gemmNTRef(m, n, k, -1, a, k, b, k, 1, c2, n)
		if d := MaxAbsDiff(c1, c2); d > 1e-13 {
			t.Errorf("GemmNT (%d,%d,%d) differs from reference by %g", m, n, k, d)
		}
	}
}

func TestGemmNTBetaHandling(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	m, n, k := 4, 5, 6
	a, b := randMat(rng, m, k), randMat(rng, n, k)
	cInit := randMat(rng, m, n)
	for _, beta := range []float64{0, 1, -2.5} {
		c1 := append([]float64(nil), cInit...)
		c2 := append([]float64(nil), cInit...)
		GemmNT(m, n, k, 1.5, a, k, b, k, beta, c1, n)
		gemmNTRef(m, n, k, 1.5, a, k, b, k, beta, c2, n)
		if d := MaxAbsDiff(c1, c2); d > 1e-12 {
			t.Errorf("beta=%v: GemmNT differs by %g", beta, d)
		}
	}
}

func TestGemmPrecisionErrorLadder(t *testing.T) {
	// Fig 1's qualitative result: relative error ordered
	// FP64 < FP32 < {TF32, FP16_32} < FP16.
	rng := rand.New(rand.NewPCG(7, 8))
	m := 48
	a, b := randMat(rng, m, m), randMat(rng, m, m)
	ref := make([]float64, m*m)
	GemmNT(m, m, m, 1, a, m, b, m, 0, ref, m)

	errFor := func(p prec.Precision) float64 {
		c := make([]float64, m*m)
		GemmNTPrec(p, m, m, m, 1, a, m, b, m, 0, c, m)
		return RelFrobeniusError(c, ref)
	}
	e32 := errFor(prec.FP32)
	eTF := errFor(prec.TF32)
	e16x := errFor(prec.FP16x32)
	eBF := errFor(prec.BF16x32)
	e16 := errFor(prec.FP16)
	// Fig 1 ordering: FP32 ≪ TF32 ≈ FP16_32 < FP16, and BF16_32 worse than
	// FP16_32 (8-bit vs 10-bit input significand). At small k BF16_32 can
	// exceed pure FP16 (input quantization dominates accumulation), so no
	// BF16-vs-FP16 ordering is asserted.
	if !(e32 < eTF && eTF <= 2*e16x && e16x <= 2*eTF && e16x < e16 && e16x < eBF) {
		t.Errorf("error ladder violated: fp32=%g tf32=%g fp16_32=%g bf16_32=%g fp16=%g",
			e32, eTF, e16x, eBF, e16)
	}
	if e32 > 1e-6 || e16 > 0.1 || e16 < 1e-4 {
		t.Errorf("errors out of expected bands: fp32=%g fp16=%g", e32, e16)
	}
}

func TestGemmFP16ValuesAreHalfRepresentable(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	m := 8
	a, b := randMat(rng, m, m), randMat(rng, m, m)
	c := make([]float64, m*m)
	GemmNTPrec(prec.FP16, m, m, m, 1, a, m, b, m, 0, c, m)
	for i, v := range c {
		if q := prec.QuantizeCopy([]float64{v}, prec.FP16)[0]; q != v {
			t.Fatalf("c[%d]=%v is not a binary16 value", i, v)
		}
	}
}

func TestPotrfReconstruction(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := spdMat(rng, n)
		l := append([]float64(nil), a...)
		if err := PotrfLower(n, l, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// zero strict upper of L, reconstruct L·Lᵀ
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				l[i*n+j] = 0
			}
		}
		r := make([]float64, n*n)
		GemmNT(n, n, n, 1, l, n, l, n, 0, r, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if d := math.Abs(r[i*n+j] - a[i*n+j]); d > 1e-10*float64(n) {
					t.Fatalf("n=%d: reconstruction error %g at (%d,%d)", n, d, i, j)
				}
			}
		}
	}
}

func TestPotrfNotSPD(t *testing.T) {
	a := []float64{1, 0, 0, -1} // indefinite
	if err := PotrfLower(2, a, 2); err == nil {
		t.Error("PotrfLower accepted an indefinite matrix")
	}
	b := []float64{4, 0, 2, 1} // second pivot: 1 - 0.25... ok. make singular:
	b = []float64{4, 0, 2, 1}
	_ = b
	c := []float64{1, 0, 1, 1} // pivot2 = 1-1 = 0
	if err := PotrfLower32(2, c, 2); err == nil {
		t.Error("PotrfLower32 accepted a singular matrix")
	}
}

func TestPotrf32MatchesPotrf64Loosely(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	n := 24
	a := spdMat(rng, n)
	l64 := append([]float64(nil), a...)
	l32 := append([]float64(nil), a...)
	if err := PotrfLower(n, l64, n); err != nil {
		t.Fatal(err)
	}
	if err := PotrfLower32(n, l32, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := math.Abs(l64[i*n+j] - l32[i*n+j])
			if d > 1e-4*math.Abs(l64[i*n+j])+1e-4 {
				t.Fatalf("fp32 potrf far from fp64 at (%d,%d): %g vs %g", i, j, l32[i*n+j], l64[i*n+j])
			}
		}
	}
}

func TestTrsmRLTSolves(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	n, m := 12, 7
	a := spdMat(rng, n)
	if err := PotrfLower(n, a, n); err != nil {
		t.Fatal(err)
	}
	b := randMat(rng, m, n)
	x := append([]float64(nil), b...)
	TrsmRLT(m, n, a, n, x, n)
	// Check X·Lᵀ == B with L the lower triangle of a.
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		copy(l[i*n:i*n+i+1], a[i*n:])
	}
	r := make([]float64, m*n)
	GemmNT(m, n, n, 1, x, n, l, n, 0, r, n)
	if d := MaxAbsDiff(r, b); d > 1e-10 {
		t.Errorf("TrsmRLT residual %g", d)
	}
}

func TestTrsmRLT32CloseToFP64(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	n, m := 10, 6
	a := spdMat(rng, n)
	if err := PotrfLower(n, a, n); err != nil {
		t.Fatal(err)
	}
	b := randMat(rng, m, n)
	x64 := append([]float64(nil), b...)
	x32 := append([]float64(nil), b...)
	TrsmRLT(m, n, a, n, x64, n)
	TrsmRLT32(m, n, a, n, x32, n)
	for i := range x64 {
		if d := math.Abs(x64[i] - x32[i]); d > 1e-4*(math.Abs(x64[i])+1) {
			t.Fatalf("fp32 trsm diverges at %d: %g vs %g", i, x32[i], x64[i])
		}
	}
}

func TestTrsmPrecPanicsOnHalf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TrsmRLTPrec(FP16) did not panic; §V forbids half TRSM")
		}
	}()
	a := []float64{1}
	b := []float64{1}
	TrsmRLTPrec(prec.FP16, 1, 1, a, 1, b, 1)
}

func TestSyrkAgainstGemm(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	n, k := 9, 5
	a := randMat(rng, n, k)
	c := spdMat(rng, n)
	c2 := append([]float64(nil), c...)
	SyrkLNPrec(prec.FP64, n, k, -1, a, k, 1, c, n)
	GemmNT(n, n, k, -1, a, k, a, k, 1, c2, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if d := math.Abs(c[i*n+j] - c2[i*n+j]); d > 1e-12 {
				t.Fatalf("SYRK lower (%d,%d) differs from GEMM by %g", i, j, d)
			}
		}
	}
}

func TestSyrk32CloseToFP64(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	n, k := 8, 6
	a := randMat(rng, n, k)
	c1 := spdMat(rng, n)
	c2 := append([]float64(nil), c1...)
	SyrkLNPrec(prec.FP64, n, k, -1, a, k, 1, c1, n)
	SyrkLNPrec(prec.FP32, n, k, -1, a, k, 1, c2, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if d := math.Abs(c1[i*n+j] - c2[i*n+j]); d > 1e-4 {
				t.Fatalf("fp32 SYRK far at (%d,%d): %g", i, j, d)
			}
		}
	}
}

func TestTrsvRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	n := 15
	a := spdMat(rng, n)
	if err := PotrfLower(n, a, n); err != nil {
		t.Fatal(err)
	}
	x0 := randMat(rng, 1, n)
	// b = L·(Lᵀ·x0); then TrsvLNN followed by TrsvLTN must recover x0.
	b := make([]float64, n)
	tmp := make([]float64, n)
	for i := 0; i < n; i++ { // tmp = Lᵀ x0
		var s float64
		for l := i; l < n; l++ {
			s += a[l*n+i] * x0[l]
		}
		tmp[i] = s
	}
	for i := 0; i < n; i++ { // b = L tmp
		var s float64
		for l := 0; l <= i; l++ {
			s += a[i*n+l] * tmp[l]
		}
		b[i] = s
	}
	TrsvLNN(n, a, n, b)
	TrsvLTN(n, a, n, b)
	if d := MaxAbsDiff(b, x0); d > 1e-9 {
		t.Errorf("Trsv round-trip error %g", d)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	// Padding past n in each row of stride ld is not counted.
	a := []float64{1, 2, 99, 3, 4, 99}
	if got := FrobeniusNormMat(2, 2, a, 3); math.Abs(got-math.Sqrt(30)) > 1e-14 {
		t.Errorf("FrobeniusNormMat = %g, want sqrt(30)", got)
	}
}

func TestRelFrobeniusError(t *testing.T) {
	b := []float64{1, 2, 2}
	a := []float64{1, 2, 2.3}
	want := 0.3 / 3.0
	if got := RelFrobeniusError(a, b); math.Abs(got-want) > 1e-14 {
		t.Errorf("RelFrobeniusError = %g, want %g", got, want)
	}
	if got := RelFrobeniusError(b, b); got != 0 {
		t.Errorf("self error = %g, want 0", got)
	}
}
