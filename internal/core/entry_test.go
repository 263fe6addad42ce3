package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"geompc/internal/geo"
	"geompc/internal/mle"
	"geompc/internal/optimize"
)

// errRejected stands for NegLogLik's outcome at an infeasible θ: +Inf, no
// error, one rejection and no factorization.
var errRejected = errors.New("rejected as infeasible")

// entryInput is one call's worth of what a caller can get wrong.
type entryInput struct {
	kernel geo.Kernel
	dim    int
	theta  []float64
	ureq   float64
}

// TestEntryPointsRejectMalformedInput feeds the same malformed inputs to
// every entry point of core and mle. Each is an error naming what is wrong
// (from geo's kernel check or precmap's u_req check), never a panic, except
// that an infeasible θ in NegLogLik is a rejected point (+Inf). An entry
// point meets the rows it has an argument for: the two fits take no θ
// (mle.Fit's start is only checked for its length, as the optimizer clamps
// it into the box) and only GenerateDataset and MonteCarlo take a
// dimension of their own.
func TestEntryPointsRejectMalformedInput(t *testing.T) {
	ds, err := GenerateDataset(64, 2, SqExp2D(), []float64{1, 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := entryInput{kernel: SqExp2D(), dim: 2, theta: []float64{1, 0.1}, ureq: 1e-4}
	// A row's kind says which argument it breaks: k the kernel, d the
	// dimension, l θ's length, v a θ entry, u the accuracy.
	type row struct {
		name, want string
		kind       byte
		edit       func(*entryInput)
	}
	rows := []row{
		{"nil kernel", "nil kernel", 'k', func(c *entryInput) { c.kernel = nil }},
		{"dimension 4", "dimension 4", 'k', func(c *entryInput) { c.kernel, c.dim = geo.SqExp{Dimension: 4}, 4 }},
		{"dimension 3, 2D kernel", "dimension 3 does not match kernel 2D-sqexp's dimension 2", 'd', func(c *entryInput) { c.dim = 3 }},
		{"short θ", "needs 2 parameters, got 1", 'l', func(c *entryInput) { c.theta = []float64{1} }},
		{"u_req NaN", "u_req", 'u', func(c *entryInput) { c.ureq = math.NaN() }},
		{"u_req -1", "u_req", 'u', func(c *entryInput) { c.ureq = -1 }},
		{"u_req +Inf", "u_req", 'u', func(c *entryInput) { c.ureq = math.Inf(1) }},
	}
	for _, b := range []struct {
		theta []float64
		want  string
	}{
		{[]float64{-1, 0.1}, "sigma2 = -1 must be finite and positive"},
		{[]float64{1, -0.1}, "beta = -0.1 must be finite and positive"},
		{[]float64{0, 0.1}, "sigma2 = 0 must be finite and positive"},
		{[]float64{math.NaN(), 0.1}, "sigma2 = NaN must be finite and positive"},
		{[]float64{math.Inf(1), 0.1}, "sigma2 = +Inf must be finite and positive"},
	} {
		rows = append(rows, row{fmt.Sprintf("θ %v", b.theta), b.want, 'v', func(c *entryInput) { c.theta = b.theta }})
	}

	problem := func(c entryInput) *mle.Problem {
		return &mle.Problem{Locs: ds.Locs, Z: ds.Z, Kernel: c.kernel, Nugget: 1e-8, TileSize: 16, UReq: c.ureq}
	}
	entries := []struct {
		name, kinds string // the row kinds the entry point has an argument for
		run         func(entryInput) error
	}{
		{"GenerateDataset", "kdlv", func(c entryInput) error {
			_, err := GenerateDataset(64, c.dim, c.kernel, c.theta, 1)
			return err
		}},
		{"Fit", "ku", func(c entryInput) error {
			_, err := Fit(&Dataset{Locs: ds.Locs, Z: ds.Z, Kernel: c.kernel}, Options{UReq: c.ureq, TileSize: 16, MaxEvals: 2})
			return err
		}},
		{"Predict", "klvu", func(c entryInput) error {
			_, err := Predict(&Dataset{Locs: ds.Locs, Z: ds.Z, Kernel: c.kernel}, c.theta, ds.Locs[:2], Options{UReq: c.ureq})
			return err
		}},
		{"ProjectFactorization", "klvu", func(c entryInput) error {
			_, err := ProjectFactorization(16384, c.kernel, c.theta, Options{UReq: c.ureq, TileSize: 2048, Machine: OneV100()}, 1)
			return err
		}},
		{"mle.NegLogLik", "klvu", func(c entryInput) error {
			var rs mle.RunStats
			v, err := problem(c).NegLogLik(c.theta, &rs)
			if err == nil && math.IsInf(v, 1) && rs.Rejected == 1 && rs.Evaluations == 0 {
				return errRejected
			}
			if err == nil {
				return fmt.Errorf("accepted: −ℓ %g, %+v", v, rs)
			}
			return err
		}},
		{"mle.Fit", "klu", func(c entryInput) error { // θ is the start
			_, lo, hi := mle.DefaultBounds(2)
			_, err := mle.Fit(problem(c), c.theta, lo, hi, optimize.Options{MaxEvals: 2})
			return err
		}},
		{"mle.MonteCarlo", "kdlvu", func(c entryInput) error {
			_, err := mle.MonteCarlo(mle.MCConfig{
				Replicas: 1, N: 32, Dim: c.dim, Kernel: c.kernel, TrueTheta: c.theta,
				UReqs: []float64{c.ureq}, Nugget: 1e-8, TileSize: 16, Seed: 1, MaxEvals: 2,
			})
			return err
		}},
	}
	for _, e := range entries {
		for _, r := range rows {
			if !strings.ContainsRune(e.kinds, rune(r.kind)) {
				continue
			}
			t.Run(e.name+"/"+r.name, func(t *testing.T) {
				c := good
				r.edit(&c)
				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					return e.run(c)
				}()
				switch {
				case r.kind == 'v' && e.name == "mle.NegLogLik":
					if !errors.Is(err, errRejected) {
						t.Errorf("got %v, want +Inf with one rejection and no factorization", err)
					}
				case err == nil || !strings.Contains(err.Error(), r.want):
					t.Errorf("got error %v, want one naming %q", err, r.want)
				}
			})
		}
	}
}
