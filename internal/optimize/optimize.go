// Package optimize provides bound-constrained derivative-free minimizers
// for the MLE driver. The paper uses NLopt's BOBYQA (§VII-B); this package
// substitutes two classical derivative-free methods that converge to the
// same optima on the smooth, low-dimensional (2–3 parameter) likelihood
// surfaces involved: a box-constrained Nelder–Mead simplex and a compass
// (coordinate pattern) search used as a polishing fallback.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// Objective is a function to minimize. Implementations may return +Inf to
// reject a point (e.g. a non-SPD covariance).
type Objective func(x []float64) float64

// Options controls a minimization.
type Options struct {
	// Tol is the convergence tolerance on the objective spread (the paper
	// sets 1e-9).
	Tol float64
	// MaxEvals bounds the number of objective evaluations (default 2000).
	MaxEvals int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxEvals <= 0 {
		o.MaxEvals = 2000
	}
	return o
}

// Result reports a completed minimization.
type Result struct {
	X     []float64
	F     float64
	Evals int
	// Converged is false when MaxEvals was exhausted first.
	Converged bool
}

// ErrBadBounds reports an unusable start or box: a lower bound above its
// upper bound, or a NaN anywhere in x0, lo or hi. Infinite bounds are
// legal.
var ErrBadBounds = errors.New("optimize: bad start or bounds")

func checkBounds(x0, lo, hi []float64) error {
	if len(lo) != len(x0) || len(hi) != len(x0) {
		return fmt.Errorf("optimize: dimension mismatch: x0=%d lo=%d hi=%d", len(x0), len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] || math.IsNaN(x0[i]) || math.IsNaN(lo[i]) || math.IsNaN(hi[i]) {
			return fmt.Errorf("%w: dim %d: x0 %g in [%g, %g]", ErrBadBounds, i, x0[i], lo[i], hi[i])
		}
	}
	return nil
}

func clampVec(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		}
		if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// NelderMead minimizes f over the box [lo, hi] starting from x0, projecting
// trial points onto the box. It is the repository's BOBYQA stand-in.
func NelderMead(f Objective, x0, lo, hi []float64, opt Options) (Result, error) {
	if err := checkBounds(x0, lo, hi); err != nil {
		return Result{}, err
	}
	opt = opt.withDefaults()
	n := len(x0)
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Initial simplex: x0 plus per-coordinate steps of 10% of the box (or
	// of |x0| when the box is unbounded in practice).
	pts := make([][]float64, n+1)
	fv := make([]float64, n+1)
	pts[0] = append([]float64(nil), x0...)
	clampVec(pts[0], lo, hi)
	fv[0] = eval(pts[0])
	for i := 0; i < n; i++ {
		p := append([]float64(nil), pts[0]...)
		step := 0.1 * (hi[i] - lo[i])
		if step <= 0 || math.IsInf(step, 0) {
			step = 0.1 * math.Max(math.Abs(p[i]), 1)
		}
		if p[i]+step > hi[i] {
			step = -step
		}
		p[i] += step
		clampVec(p, lo, hi)
		pts[i+1] = p
		fv[i+1] = eval(p)
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	order := func() {
		// insertion sort of the n+1 simplex points by fv
		for i := 1; i <= n; i++ {
			for j := i; j > 0 && fv[j] < fv[j-1]; j-- {
				fv[j], fv[j-1] = fv[j-1], fv[j]
				pts[j], pts[j-1] = pts[j-1], pts[j]
			}
		}
	}

	centroid := make([]float64, n)
	trial := make([]float64, n)
	trial2 := make([]float64, n)

	for evals < opt.MaxEvals {
		order()
		if math.Abs(fv[n]-fv[0]) <= opt.Tol*(math.Abs(fv[0])+opt.Tol) {
			return Result{X: pts[0], F: fv[0], Evals: evals, Converged: true}, nil
		}
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := range centroid {
				centroid[j] += pts[i][j] / float64(n)
			}
		}
		// Reflection.
		for j := range trial {
			trial[j] = centroid[j] + alpha*(centroid[j]-pts[n][j])
		}
		clampVec(trial, lo, hi)
		fr := eval(trial)
		switch {
		case fr < fv[0]:
			// Expansion.
			for j := range trial2 {
				trial2[j] = centroid[j] + gamma*(trial[j]-centroid[j])
			}
			clampVec(trial2, lo, hi)
			fe := eval(trial2)
			if fe < fr {
				copy(pts[n], trial2)
				fv[n] = fe
			} else {
				copy(pts[n], trial)
				fv[n] = fr
			}
		case fr < fv[n-1]:
			copy(pts[n], trial)
			fv[n] = fr
		default:
			// Contraction.
			for j := range trial2 {
				trial2[j] = centroid[j] + rho*(pts[n][j]-centroid[j])
			}
			clampVec(trial2, lo, hi)
			fc := eval(trial2)
			if fc < fv[n] {
				copy(pts[n], trial2)
				fv[n] = fc
			} else {
				// Shrink toward the best point.
				for i := 1; i <= n; i++ {
					for j := range pts[i] {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					clampVec(pts[i], lo, hi)
					fv[i] = eval(pts[i])
				}
			}
		}
	}
	order()
	return Result{X: pts[0], F: fv[0], Evals: evals, Converged: false}, nil
}

// CompassSearch minimizes f by coordinate pattern search with step halving:
// robust, slow, and provably convergent on smooth objectives. Used to
// polish Nelder–Mead results and as an independent cross-check.
func CompassSearch(f Objective, x0, lo, hi []float64, opt Options) (Result, error) {
	if err := checkBounds(x0, lo, hi); err != nil {
		return Result{}, err
	}
	opt = opt.withDefaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	clampVec(x, lo, hi)
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	fx := eval(x)
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = 0.25 * (hi[i] - lo[i])
		if steps[i] <= 0 || math.IsInf(steps[i], 0) {
			steps[i] = math.Max(math.Abs(x[i])*0.25, 0.25)
		}
	}
	trial := make([]float64, n)
	for evals < opt.MaxEvals {
		improved := false
		for i := 0; i < n; i++ {
			for _, dir := range []float64{1, -1} {
				copy(trial, x)
				trial[i] += dir * steps[i]
				clampVec(trial, lo, hi)
				if trial[i] == x[i] {
					continue
				}
				if ft := eval(trial); ft < fx {
					copy(x, trial)
					fx = ft
					improved = true
				}
			}
		}
		if !improved {
			maxStep := 0.0
			for i := range steps {
				steps[i] /= 2
				if steps[i] > maxStep {
					maxStep = steps[i]
				}
			}
			if maxStep < opt.Tol {
				return Result{X: x, F: fx, Evals: evals, Converged: true}, nil
			}
		}
	}
	return Result{X: x, F: fx, Evals: evals, Converged: false}, nil
}

// memoized wraps f with an exact-bits value cache (see Minimize). Keys are
// the raw IEEE-754 bit patterns of the argument vector, so two calls hit
// the same entry iff the coordinates are bit-identical — the only equality
// under which reusing a deterministic objective value is sound.
func memoized(f Objective) Objective {
	cache := make(map[string]float64)
	var key []byte
	return func(x []float64) float64 {
		key = key[:0]
		for _, v := range x {
			b := math.Float64bits(v)
			key = append(key,
				byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
				byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
		}
		if v, ok := cache[string(key)]; ok {
			return v
		}
		v := f(x)
		cache[string(key)] = v
		return v
	}
}

// Minimize runs Nelder–Mead with automatic restarts (a fresh simplex is
// spawned at the incumbent until it stops improving — the standard remedy
// for premature simplex collapse on curved likelihood ridges) and polishes
// the result with a short compass search, returning the best point found.
//
// f must be deterministic: the restart and polish phases re-evaluate
// incumbents at bit-identical coordinates, and Minimize answers those
// repeats from a table of the values f already returned instead of calling
// it again (each call is a simulated factorization in the MLE driver). The
// table sits below the evaluation counter, so Result.Evals, the budget
// split and the point returned are those of calling f every time; f itself
// is called once per distinct argument.
func Minimize(f Objective, x0, lo, hi []float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	f = memoized(f)
	budget := opt.MaxEvals
	perRun := opt
	perRun.MaxEvals = budget / 2

	best, err := NelderMead(f, x0, lo, hi, perRun)
	if err != nil {
		return Result{}, err
	}
	evals := best.Evals
	// Restart loop: NM again from the incumbent with a fresh simplex.
	for evals < budget*3/4 {
		perRun.MaxEvals = budget/4 + 1
		r, err := NelderMead(f, best.X, lo, hi, perRun)
		if err != nil {
			return Result{}, err
		}
		evals += r.Evals
		improved := r.F < best.F-opt.Tol*(math.Abs(best.F)+opt.Tol)
		if r.F < best.F {
			r.Evals = evals
			best = r
		}
		if !improved {
			break
		}
	}
	polishOpt := opt
	polishOpt.MaxEvals = budget / 4
	cs, err := CompassSearch(f, best.X, lo, hi, polishOpt)
	if err != nil {
		return Result{}, err
	}
	evals += cs.Evals
	if cs.F < best.F {
		cs.Evals = evals
		cs.Converged = cs.Converged || best.Converged
		return cs, nil
	}
	best.Evals = evals
	return best, nil
}
