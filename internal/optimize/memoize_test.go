package optimize

import (
	"math"
	"testing"
)

// TestMemoizeExactRepeats: Minimize calls the underlying objective at most
// once per bit-identical coordinate vector — fewer calls than the
// evaluations it counts, because the restart loop revisits points — and
// still reaches the optimum.
func TestMemoizeExactRepeats(t *testing.T) {
	sphere := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += (v - 0.3) * (v - 0.3)
		}
		return s
	}
	seen := make(map[[2]uint64]bool)
	res, err := Minimize(func(x []float64) float64 {
		key := [2]uint64{math.Float64bits(x[0]), math.Float64bits(x[1])}
		if seen[key] {
			t.Errorf("objective called again at %v", x)
		}
		seen[key] = true
		return sphere(x)
	}, []float64{-1, 1}, []float64{-2, -2}, []float64{2, 2}, Options{Tol: 1e-10, MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) >= res.Evals {
		t.Fatalf("objective called %d times for %d counted evaluations (the restart loop should repeat points)",
			len(seen), res.Evals)
	}
	if math.Abs(res.F) > 1e-8 {
		t.Fatalf("optimum not reached: f=%g", res.F)
	}
}
