package optimize

import (
	"errors"
	"math"
	"testing"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += (v - 0.3) * (v - 0.3)
	}
	return s
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i+1 < len(x); i++ {
		s += 100*(x[i+1]-x[i]*x[i])*(x[i+1]-x[i]*x[i]) + (1-x[i])*(1-x[i])
	}
	return s
}

func TestNelderMeadSphere(t *testing.T) {
	res, err := NelderMead(sphere, []float64{1.5, -0.5, 0.9}, []float64{-2, -2, -2}, []float64{2, 2, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	for i, v := range res.X {
		if math.Abs(v-0.3) > 1e-4 {
			t.Errorf("x[%d] = %g, want 0.3", i, v)
		}
	}
}

func TestNelderMeadRosenbrock2D(t *testing.T) {
	res, err := Minimize(rosenbrock, []float64{-1.2, 1}, []float64{-5, -5}, []float64{5, 5}, Options{MaxEvals: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-2 || math.Abs(res.X[1]-1) > 1e-2 {
		t.Errorf("Rosenbrock minimum missed: %v (f=%g)", res.X, res.F)
	}
}

func TestBoundsAreRespected(t *testing.T) {
	// The unconstrained minimum (0.3) is outside the box; the solution must
	// land on the boundary 0.5.
	lo, hi := []float64{0.5}, []float64{2}
	for _, m := range []func(Objective, []float64, []float64, []float64, Options) (Result, error){NelderMead, CompassSearch, Minimize} {
		res, err := m(sphere, []float64{1.5}, lo, hi, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.X[0] < 0.5-1e-12 || res.X[0] > 2+1e-12 {
			t.Errorf("solution %v outside box", res.X)
		}
		if math.Abs(res.X[0]-0.5) > 1e-3 {
			t.Errorf("boundary minimum missed: %v", res.X)
		}
	}
}

func TestLowerBoundStart(t *testing.T) {
	// The paper starts optimization from the lower bound values; that must
	// work (the initial simplex must expand into the box, not out of it).
	res, err := Minimize(sphere, []float64{0.01, 0.01}, []float64{0.01, 0.01}, []float64{2, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if math.Abs(v-0.3) > 1e-3 {
			t.Errorf("x[%d] = %g, want 0.3", i, v)
		}
	}
}

func TestInfinityRejection(t *testing.T) {
	// Objective returning +Inf on half the domain (non-SPD region) must not
	// break the search.
	f := func(x []float64) float64 {
		if x[0] < 0.2 {
			return math.Inf(1)
		}
		return (x[0] - 0.7) * (x[0] - 0.7)
	}
	res, err := Minimize(f, []float64{1.9}, []float64{0.01}, []float64{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.7) > 1e-3 {
		t.Errorf("minimum missed with Inf region: %v", res.X)
	}
}

func TestNaNTreatedAsInf(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] > 1 {
			return math.NaN()
		}
		return x[0] * x[0]
	}
	res, err := NelderMead(f, []float64{0.9}, []float64{-2}, []float64{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.F) {
		t.Error("NaN escaped into result")
	}
}

func TestBadBounds(t *testing.T) {
	if _, err := NelderMead(sphere, []float64{0}, []float64{1}, []float64{-1}, Options{}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := CompassSearch(sphere, []float64{0}, []float64{0}, []float64{1, 2}, Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestNaNStartOrBoundRejected: a NaN in the start or the box is an error
// from every method, not a silently wrong answer.
func TestNaNStartOrBoundRejected(t *testing.T) {
	nan := math.NaN()
	methods := []struct {
		name string
		run  func(f Objective, x0, lo, hi []float64, opt Options) (Result, error)
	}{{"Minimize", Minimize}, {"NelderMead", NelderMead}, {"CompassSearch", CompassSearch}}
	rows := []struct {
		name       string
		x0, lo, hi float64
	}{
		{"lo", 0, nan, 2},
		{"hi", 0, -2, nan},
		{"x0", nan, -2, 2},
		{"x0 with infinite box", nan, math.Inf(-1), math.Inf(1)},
	}
	for _, m := range methods {
		for _, r := range rows {
			res, err := m.run(sphere, []float64{r.x0}, []float64{r.lo}, []float64{r.hi}, Options{MaxEvals: 50})
			if !errors.Is(err, ErrBadBounds) {
				t.Errorf("%s, NaN %s: X=%v err=%v, want ErrBadBounds", m.name, r.name, res.X, err)
			}
		}
	}
	// Infinite bounds stay legal.
	if _, err := Minimize(sphere, []float64{1}, []float64{math.Inf(-1)}, []float64{math.Inf(1)}, Options{MaxEvals: 50}); err != nil {
		t.Errorf("infinite box rejected: %v", err)
	}
}

func TestMaxEvalsHonored(t *testing.T) {
	evals := 0
	f := func(x []float64) float64 { evals++; return sphere(x) }
	res, err := NelderMead(f, []float64{1.5, 1.5}, []float64{-2, -2}, []float64{2, 2}, Options{MaxEvals: 30, Tol: 1e-30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("claimed convergence with Tol=1e-30 and 30 evals")
	}
	if evals > 35 { // slight overshoot within one iteration is fine
		t.Errorf("used %d evals, budget 30", evals)
	}
}

func TestCompassOnQuadraticValley(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-0.4)*(x[0]-0.4) + 10*(x[1]-0.8)*(x[1]-0.8)
	}
	res, err := CompassSearch(f, []float64{0.01, 0.01}, []float64{0.01, 0.01}, []float64{2, 2}, Options{MaxEvals: 4000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.4) > 1e-4 || math.Abs(res.X[1]-0.8) > 1e-4 {
		t.Errorf("valley minimum missed: %v", res.X)
	}
}
