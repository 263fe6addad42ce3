package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"geompc/internal/prec"
)

func TestGemmLinearityProperty(t *testing.T) {
	// GEMM is linear in alpha: C(2α) - C(0-init) == 2·(C(α) - C(0-init)).
	rng := rand.New(rand.NewPCG(31, 32))
	if err := quick.Check(func(seed uint8) bool {
		m, n, k := int(seed%5)+1, int(seed%4)+2, int(seed%6)+1
		a, b := randMat(rng, m, k), randMat(rng, n, k)
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		GemmNT(m, n, k, 1.5, a, k, b, k, 0, c1, n)
		GemmNT(m, n, k, 3.0, a, k, b, k, 0, c2, n)
		for i := range c1 {
			if math.Abs(2*c1[i]-c2[i]) > 1e-12*(math.Abs(c2[i])+1) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPotrfIdentity(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			a[i*n+i] = 1
		}
		if err := PotrfLower(n, a, n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if a[i*n+j] != want {
					t.Fatalf("chol(I)[%d,%d] = %g", i, j, a[i*n+j])
				}
			}
		}
	}
}

func TestPotrfDiagonalScaling(t *testing.T) {
	// chol(s²·I) = s·I.
	n := 5
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 9
	}
	if err := PotrfLower(n, a, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if a[i*n+i] != 3 {
			t.Fatalf("diag %g, want 3", a[i*n+i])
		}
	}
}

func TestTrsmIdentityIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	n, m := 6, 4
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	b := randMat(rng, m, n)
	x := append([]float64(nil), b...)
	TrsmRLT(m, n, a, n, x, n)
	if d := MaxAbsDiff(x, b); d != 0 {
		t.Errorf("solve against identity changed B by %g", d)
	}
}

func TestGemmPrecDispatchCoversAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	m := 6
	a, b := randMat(rng, m, m), randMat(rng, m, m)
	for _, p := range prec.All {
		c := make([]float64, m*m)
		GemmNTPrec(p, m, m, m, 1, a, m, b, m, 0, c, m)
		if FrobeniusNormMat(m, m, c, m) == 0 {
			t.Errorf("%v GEMM produced zero output", p)
		}
	}
}

func TestSyrkPreservesSymmetryOfUpdate(t *testing.T) {
	// After C -= A·Aᵀ on the lower triangle, reconstructing via GEMM must
	// agree — and the update keeps SPD matrices symmetric by construction.
	rng := rand.New(rand.NewPCG(37, 38))
	n, k := 7, 4
	a := randMat(rng, n, k)
	c := spdMat(rng, n)
	ref := append([]float64(nil), c...)
	SyrkLNPrec(prec.FP64, n, k, -0.5, a, k, 1, c, n)
	GemmNT(n, n, k, -0.5, a, k, a, k, 1, ref, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c[i*n+j]-ref[i*n+j]) > 1e-12 {
				t.Fatalf("SYRK/GEMM disagree at (%d,%d)", i, j)
			}
		}
	}
}

func TestMixedGemmRespectsBeta(t *testing.T) {
	// beta=0 must fully overwrite C (no NaN propagation from garbage C).
	rng := rand.New(rand.NewPCG(39, 40))
	m := 5
	a, b := randMat(rng, m, m), randMat(rng, m, m)
	for _, p := range []prec.Precision{prec.FP32, prec.FP16x32, prec.FP16} {
		c := make([]float64, m*m)
		for i := range c {
			c[i] = math.NaN()
		}
		GemmNTPrec(p, m, m, m, 1, a, m, b, m, 0, c, m)
		for i, v := range c {
			if math.IsNaN(v) {
				t.Fatalf("%v: NaN leaked through beta=0 at %d", p, i)
			}
		}
	}
}
