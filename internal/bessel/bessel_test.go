package bessel

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Reference values verified against the independent integral representation
// K_ν(x) = ∫₀^∞ e^{−x·cosh t}·cosh(νt) dt (composite Simpson, 2·10⁵ panels),
// which agrees with the classical tabulated values of K₀(1), K₁(1), K₀(2).
var refK = []struct {
	nu, x, want float64
}{
	{0, 0.1, 2.4270690247020166},
	{0, 1, 0.42102443824070834},
	{0, 2, 0.11389387274953343},
	{0, 5, 0.003691098334042594},
	{1, 0.1, 9.853844780870606},
	{1, 1, 0.6019072301972346},
	{1, 2, 0.13986588181652243},
	{2, 1, 1.6248388986351774},
	{0.5, 0.7, 0.74388325232066244}, // sqrt(pi/1.4)*exp(-0.7)
	{1.5, 1, 0.92213700889574435},   // (1+1/x)*K(0.5,x)
	{2.5, 2, 0.38979775889617185},   // half-integer via recurrence
	{0.25, 1, 0.43073977444855821},
	{0.75, 3, 0.03769642340592487},
	{1, 10, 1.8648773453824305e-05},
	{3.7, 4.2, 0.036896280760541696},
}

func TestKReferenceValues(t *testing.T) {
	for _, c := range refK {
		got := K(c.nu, c.x)
		rel := math.Abs(got-c.want) / c.want
		if rel > 1e-12 {
			t.Errorf("K(%g, %g) = %.17g, want %.17g (rel err %.2g)", c.nu, c.x, got, c.want, rel)
		}
	}
}

func TestKHalfClosedForm(t *testing.T) {
	for _, x := range []float64{0.01, 0.3, 1, 2.5, 10, 50} {
		want := math.Sqrt(math.Pi/(2*x)) * math.Exp(-x)
		if got := K(0.5, x); math.Abs(got-want) > 1e-14*want {
			t.Errorf("K(0.5, %g) = %g, want %g", x, got, want)
		}
	}
}

func TestKRecurrenceProperty(t *testing.T) {
	// K_{ν+1}(x) = K_{ν-1}(x) + (2ν/x)·K_ν(x) must hold for independent
	// evaluations at the three orders.
	rng := rand.New(rand.NewPCG(42, 0))
	for i := 0; i < 300; i++ {
		nu := 1 + rng.Float64()*3 // ν-1 ∈ [0,3]
		x := 0.05 + rng.Float64()*8
		km1 := K(nu-1, x)
		k0 := K(nu, x)
		kp1 := K(nu+1, x)
		want := km1 + (2*nu/x)*k0
		if rel := math.Abs(kp1-want) / kp1; rel > 1e-10 {
			t.Fatalf("recurrence violated at ν=%g x=%g: K_{ν+1}=%g, rhs=%g (rel %g)", nu, x, kp1, want, rel)
		}
	}
}

func TestKContinuityAcrossCrossover(t *testing.T) {
	// The series/CF2 switch at x=2 must be seamless.
	for _, nu := range []float64{0, 0.3, 0.5, 1, 1.7, 2.5} {
		lo := K(nu, 2*(1-1e-9))
		hi := K(nu, 2*(1+1e-9))
		if rel := math.Abs(lo-hi) / lo; rel > 1e-7 {
			t.Errorf("ν=%g: discontinuity at crossover: %g vs %g", nu, lo, hi)
		}
	}
}

func TestKContinuityInOrder(t *testing.T) {
	// K is smooth in ν; evaluations bracketing integers and half-integers
	// (where the order-reduction path changes) must agree.
	for _, nu := range []float64{0.5, 1, 1.5, 2} {
		for _, x := range []float64{0.5, 1.5, 3} {
			lo := K(nu-1e-7, x)
			hi := K(nu+1e-7, x)
			if rel := math.Abs(lo-hi) / lo; rel > 1e-5 {
				t.Errorf("ν=%g x=%g: kink in order: %g vs %g", nu, x, lo, hi)
			}
		}
	}
}

func TestKMonotoneInX(t *testing.T) {
	// K_ν is strictly decreasing in x.
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 200; i++ {
		nu := rng.Float64() * 3
		x := 0.05 + rng.Float64()*6
		if !(K(nu, x) > K(nu, x*1.1)) {
			t.Fatalf("K(%g,·) not decreasing at x=%g", nu, x)
		}
	}
}

func TestKMonotoneInOrder(t *testing.T) {
	// For fixed x, K_ν increases with ν ≥ 0.
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 200; i++ {
		nu := rng.Float64() * 3
		x := 0.1 + rng.Float64()*5
		if !(K(nu+0.3, x) > K(nu, x)) {
			t.Fatalf("K not increasing in order at ν=%g x=%g", nu, x)
		}
	}
}

func TestKEdgeCases(t *testing.T) {
	if !math.IsInf(K(1, 0), 1) {
		t.Error("K(1,0) should be +Inf")
	}
	if !math.IsNaN(K(1, -1)) {
		t.Error("K(1,-1) should be NaN")
	}
	if !math.IsNaN(K(math.NaN(), 1)) {
		t.Error("K(NaN,1) should be NaN")
	}
	// Symmetry in order.
	if K(-1.3, 2) != K(1.3, 2) {
		t.Error("K(-ν,x) != K(ν,x)")
	}
	// Very large x underflows gracefully to 0, not NaN.
	if v := K(1, 800); v != 0 || math.IsNaN(v) {
		t.Errorf("K(1,800) = %g, want exact underflow to 0", v)
	}
}

func TestKScaled(t *testing.T) {
	for _, c := range []struct{ nu, x float64 }{{0, 1}, {1, 5}, {0.5, 10}, {2.2, 3}} {
		want := math.Exp(c.x) * K(c.nu, c.x)
		if got := KScaled(c.nu, c.x); math.Abs(got-want) > 1e-12*want {
			t.Errorf("KScaled(%g,%g) = %g, want %g", c.nu, c.x, got, want)
		}
	}
	// Large-x regime must remain finite and close to sqrt(pi/(2x)).
	got := KScaled(0.5, 1000)
	want := math.Sqrt(math.Pi / 2000)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("KScaled(0.5,1000) = %g, want %g", got, want)
	}
}

// TestKScaledReference pins e^x·K_ν(x) against 20-digit values (mpmath) on
// both sides of the Temme/CF2 crossover and of x = 700, where exp(x)·K(ν,x)
// stops being computable.
func TestKScaledReference(t *testing.T) {
	for _, c := range []struct{ nu, x, want float64 }{
		{0, 0.1, 2.6823261022628943831},
		{0, 1.9999, 0.84158740659860283202},
		{0, 2.0001, 0.84154902487215160133},
		{0, 50, 0.17680715585742933811},
		{0, 700, 0.047362369454613572112},
		{0, 701, 0.047328587433553187814},
		{0, 5000, 0.017724095445432316158},
		{0.3, 0.1, 3.1000668397536310002},
		{0.3, 1.9999, 0.85742394632846498735},
		{0.3, 2.0001, 0.85738348113343983011},
		{0.3, 50, 0.17696479422357449434},
		{0.3, 700, 0.047365412104601832295},
		{0.3, 701, 0.047331623578920389561},
		{0.3, 5000, 0.017724254947060730895},
		{1, 0.1, 10.890182683049696574},
		{1, 1.9999, 1.0335093314872252548},
		{1, 2.0001, 1.0334443655287813781},
		{1, 50, 0.1785665585588155746},
		{1, 700, 0.047396187653494544137},
		{1, 701, 0.04736233331979019718},
		{1, 5000, 0.017725867766374100722},
		{1.5, 0.1, 43.596600273666121147},
		{1.5, 2.0001, 1.3292850019040725485},
		{1.5, 701, 0.047404549499667414854},
		{2.5, 0.1, 1311.8613355075896454},
		{2.5, 1.9999, 2.8804424620308689612},
		{2.5, 2.0001, 2.8800325820759603665},
		{2.5, 50, 0.18809280265809336082},
		{2.5, 700, 0.047574129575454027646},
		{2.5, 701, 0.047539894188465738612},
		{2.5, 5000, 0.017735175359105214456},
	} {
		if got := KScaled(c.nu, c.x); math.Abs(got-c.want) > 4e-15*c.want {
			t.Errorf("KScaled(%g,%g) = %.17g, want %.17g (rel %.2g)", c.nu, c.x, got, c.want, math.Abs(got-c.want)/c.want)
		}
	}
	// Out-of-domain arguments are treated as K treats them.
	if !math.IsInf(KScaled(1, 0), 1) || !math.IsNaN(KScaled(1, -1)) || !math.IsNaN(KScaled(math.NaN(), 1)) {
		t.Error("KScaled out-of-domain handling differs from K")
	}
	if KScaled(-1.3, 2) != KScaled(1.3, 2) {
		t.Error("KScaled(-ν,x) != KScaled(ν,x)")
	}
}

func BenchmarkKSmallX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = K(1.0, 0.5)
	}
}

func BenchmarkKLargeX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = K(1.0, 5.0)
	}
}
