package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(1, 2), NewRNG(1, 2)
	for i := 0; i < 100; i++ {
		if a.Norm() != b.Norm() || a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(1, 3)
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different streams produced identical output")
	}
}

func TestNormMoments(t *testing.T) {
	g := NewRNG(99, 0)
	n := 200000
	var sum, sum2, sum3, sum4 float64
	for i := 0; i < n; i++ {
		v := g.Norm()
		sum += v
		sum2 += v * v
		sum3 += v * v * v
		sum4 += v * v * v * v
	}
	mean := sum / float64(n)
	vr := sum2/float64(n) - mean*mean
	skew := sum3 / float64(n)
	kurt := sum4 / float64(n)
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %g, want ~0", mean)
	}
	if math.Abs(vr-1) > 0.02 {
		t.Errorf("var = %g, want ~1", vr)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("skew = %g, want ~0", skew)
	}
	if math.Abs(kurt-3) > 0.1 {
		t.Errorf("kurtosis = %g, want ~3", kurt)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("five-number summary wrong: %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles: Q1=%g Q3=%g, want 2, 4", s.Q1, s.Q3)
	}
	if math.Abs(s.Mean-3) > 1e-15 {
		t.Errorf("mean = %g, want 3", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-15 {
		t.Errorf("std = %g, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.Std != 0 {
		t.Errorf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Summarize(nil) did not panic")
		}
	}()
	Summarize(nil)
}

func TestWhiskers(t *testing.T) {
	// Outlier 100 must be excluded from the upper whisker.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	s := Summarize(x)
	if s.WhiskerHi == 100 {
		t.Error("outlier included in whisker")
	}
	if s.WhiskerLo != 1 {
		t.Errorf("WhiskerLo = %g, want 1", s.WhiskerLo)
	}
}

func TestSummaryInvariants(t *testing.T) {
	g := NewRNG(5, 5)
	if err := quick.Check(func(seed uint64) bool {
		n := 1 + int(seed%50)
		x := make([]float64, n)
		for i := range x {
			x[i] = g.Norm() * 10
		}
		s := Summarize(x)
		ordered := s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
		whisker := s.WhiskerLo >= s.Min && s.WhiskerHi <= s.Max && s.WhiskerLo <= s.WhiskerHi
		meanIn := s.Mean >= s.Min && s.Mean <= s.Max
		return ordered && whisker && meanIn && s.IQR >= 0
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := quantileSorted(x, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := quantileSorted(x, 1); got != 4 {
		t.Errorf("q1 = %g", got)
	}
	if got := quantileSorted(x, 0.5); math.Abs(got-2.5) > 1e-15 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(11, 0)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
