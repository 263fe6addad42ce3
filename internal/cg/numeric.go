package cg

import (
	"errors"
	"fmt"
	"math"

	"geompc/internal/linalg"
	"geompc/internal/prec"
	"geompc/internal/tile"
)

// ErrNotSPD marks numeric failures that mean "Σ is not positive definite
// at working precision" — the iterative analogue of a failed Cholesky
// pivot. Callers (the MLE loop) treat it as an infeasible θ, not a bug.
var ErrNotSPD = errors.New("matrix not SPD")

// state is the numeric CG state threaded through the task bodies of every
// chunk. Vector segments are written by exactly one task per iteration and
// the reduction chain orders iterations transitively (the engine joins a
// task's body before its successors commit), so the single-buffer layout
// is race-free.
type state struct {
	desc tile.Desc
	mat  *tile.Matrix

	b             []float64 // right-hand side, for residual replacement
	x, r, z, p, y []float64
	invdiag       []float64 // Jacobi preconditioner, nil for identity

	d1 []float64 // pᵀy partials, one per segment
	d2 []float64 // (zᵀr, rᵀr) partials, two per segment

	alpha, beta  float64 // current step scalars
	rhoOld       float64
	bnorm        float64
	alphas       []float64 // per global iteration, for the SLQ estimator
	betas        []float64
	relres       []float64 // measured ‖r‖/‖b‖ after each global iteration
	lowestEps    float64   // smallest eps any SpMV ran at (stagnation guard)
	iterationsIn int       // global iterations completed before this chunk
}

// newState initializes x=0, r=b, z=M⁻¹r, p=z (quantized later to the first
// chunk's wire format by the driver).
func newState(d tile.Desc, mat *tile.Matrix, rhs []float64, precond string, maxIters int) (*state, error) {
	n := d.N
	st := &state{
		desc: d, mat: mat,
		b: append([]float64(nil), rhs...),
		x: make([]float64, n), r: make([]float64, n),
		z: make([]float64, n), p: make([]float64, n),
		y:  make([]float64, n),
		d1: make([]float64, d.NT), d2: make([]float64, 2*d.NT),
		alphas: make([]float64, maxIters), betas: make([]float64, maxIters),
		relres:    make([]float64, maxIters),
		lowestEps: math.Inf(1),
	}
	copy(st.r, rhs)
	if precond == "" || precond == "jacobi" {
		st.invdiag = make([]float64, n)
		for i := 0; i < d.NT; i++ {
			t := mat.At(i, i)
			off := i * d.TS
			for k := 0; k < t.M; k++ {
				v := t.Data[k*t.N+k]
				if v <= 0 || math.IsNaN(v) {
					return nil, fmt.Errorf("cg: non-positive diagonal %g at row %d: %w", v, off+k, ErrNotSPD)
				}
				st.invdiag[off+k] = 1 / v
			}
		}
	} else if precond != "none" {
		return nil, fmt.Errorf("cg: unknown preconditioner %q (have jacobi, none)", precond)
	}
	st.applyPrecond()
	copy(st.p, st.z)
	st.rhoOld = dotSeg(st.z, st.r)
	st.bnorm = math.Sqrt(dotSeg(st.r, st.r))
	if st.bnorm == 0 {
		st.bnorm = 1 // b = 0: x = 0 is exact, relres stays 0
	}
	return st, nil
}

// seg slices segment i (tile row i's span) out of a length-N vector.
func (st *state) seg(v []float64, i int) []float64 {
	off := i * st.desc.TS
	return v[off : off+st.desc.TileDim(i)]
}

// applyPrecond sets z = M⁻¹ r over the whole vector.
func (st *state) applyPrecond() {
	if st.invdiag == nil {
		copy(st.z, st.r)
		return
	}
	for k, v := range st.r {
		st.z[k] = v * st.invdiag[k]
	}
}

// refresh performs residual replacement: it recomputes the true residual
// r = b − Ax in FP64, reapplies the preconditioner and resets ρ, and
// returns the true relative residual. Reduced-precision SpMVs make the CG
// recurrence residual drift away from b − Ax (the recurrence converges
// while the solution stalls), so the driver replaces the residual at every
// chunk boundary and lets the true residual drive both the convergence
// check and the precision-switch rule. The O(n²) FP64 host sweep is not
// metered — the same accounting convention as the direct backend's
// host-side triangular solves.
func (st *state) refresh() float64 {
	for k := range st.y {
		st.y[k] = 0
	}
	for i := 0; i < st.desc.NT; i++ {
		for j := 0; j <= i; j++ {
			tl := st.mat.At(i, j)
			linalg.GemvNPrec(prec.FP64, tl.M, tl.N, 1, tl.Data, tl.N, st.seg(st.x, j), 1, st.seg(st.y, i))
			if j < i {
				linalg.GemvTPrec(prec.FP64, tl.M, tl.N, 1, tl.Data, tl.N, st.seg(st.x, i), 1, st.seg(st.y, j))
			}
		}
	}
	for k := range st.r {
		st.r[k] = st.b[k] - st.y[k]
	}
	st.applyPrecond()
	st.rhoOld = dotSeg(st.z, st.r)
	return math.Sqrt(dotSeg(st.r, st.r)) / st.bnorm
}

// dotSeg is the dot-product reduction kernel of the CG inner loop.
//
//geompc:hot
func dotSeg(a, b []float64) float64 {
	s := 0.0
	for k, v := range a {
		s += v * b[k]
	}
	return s
}

// mvBody returns the numeric body of SpMV step (t,i,j):
// y_i (+)= A(i,j)·p_j at the iteration's execution precision, reading the
// stored lower tile (transposed when j > i).
func (g *graph) mvBody(t, i, j int) func() {
	st := g.st
	if st == nil {
		return nil
	}
	ep := g.cp.precs[t]
	//geompc:nolint hotalloc numeric-mode task bodies capture (t,i,j) by design; pure-DES runs return nil above and stay allocation-free
	return func() {
		a, b, trans := mvTile(i, j)
		tl := st.mat.At(a, b)
		beta := 1.0
		if j == 0 {
			beta = 0
		}
		if trans {
			linalg.GemvTPrec(ep, tl.M, tl.N, 1, tl.Data, tl.N, st.seg(st.p, j), beta, st.seg(st.y, i))
		} else {
			linalg.GemvNPrec(ep, tl.M, tl.N, 1, tl.Data, tl.N, st.seg(st.p, j), beta, st.seg(st.y, i))
		}
	}
}

func (g *graph) dotBody(t, i int) func() {
	st := g.st
	if st == nil {
		return nil
	}
	//geompc:nolint hotalloc numeric-mode task bodies are closures by design; pure-DES runs skip them and stay allocation-free
	return func() { st.d1[i] = dotSeg(st.seg(st.p, i), st.seg(st.y, i)) }
}

func (g *graph) red1Body(t int) func() {
	st := g.st
	if st == nil {
		return nil
	}
	gt := g.cp.base + t
	//geompc:nolint hotalloc numeric-mode task bodies are closures by design; pure-DES runs skip them and stay allocation-free
	return func() {
		pap := 0.0
		for _, v := range st.d1 {
			pap += v
		}
		if !(pap > 0) {
			g.fail(fmt.Errorf("cg: breakdown at iteration %d: pᵀAp = %g: %w", gt, pap, ErrNotSPD))
			st.alpha = 0
			st.alphas[gt] = 0
			return
		}
		st.alpha = st.rhoOld / pap
		st.alphas[gt] = st.alpha
	}
}

func (g *graph) updBody(t, i int) func() {
	st := g.st
	if st == nil {
		return nil
	}
	//geompc:nolint hotalloc numeric-mode task bodies are closures by design; pure-DES runs skip them and stay allocation-free
	return func() {
		x, r, y, p := st.seg(st.x, i), st.seg(st.r, i), st.seg(st.y, i), st.seg(st.p, i)
		a := st.alpha
		for k := range x {
			x[k] += a * p[k]
			r[k] -= a * y[k]
		}
		z := st.seg(st.z, i)
		if st.invdiag == nil {
			copy(z, r)
		} else {
			d := st.seg(st.invdiag, i)
			for k := range z {
				z[k] = r[k] * d[k]
			}
		}
	}
}

func (g *graph) dot2Body(t, i int) func() {
	st := g.st
	if st == nil {
		return nil
	}
	//geompc:nolint hotalloc numeric-mode task bodies are closures by design; pure-DES runs skip them and stay allocation-free
	return func() {
		r, z := st.seg(st.r, i), st.seg(st.z, i)
		st.d2[2*i] = dotSeg(z, r)
		st.d2[2*i+1] = dotSeg(r, r)
	}
}

func (g *graph) red2Body(t int) func() {
	st := g.st
	if st == nil {
		return nil
	}
	gt := g.cp.base + t
	//geompc:nolint hotalloc numeric-mode task bodies are closures by design; pure-DES runs skip them and stay allocation-free
	return func() {
		rhoNew, res2 := 0.0, 0.0
		for k := 0; k < len(st.d2); k += 2 {
			rhoNew += st.d2[k]
			res2 += st.d2[k+1]
		}
		if st.rhoOld != 0 {
			st.beta = rhoNew / st.rhoOld
		} else {
			st.beta = 0
		}
		st.betas[gt] = st.beta
		st.relres[gt] = math.Sqrt(math.Max(res2, 0)) / st.bnorm
		st.rhoOld = rhoNew
	}
}

// pupdBody updates the search direction p = z + βp and rounds it through
// the next iteration's wire format, so every consumer — local or remote —
// reads the same bits the broadcast carried.
func (g *graph) pupdBody(t, i int) func() {
	st := g.st
	if st == nil {
		return nil
	}
	wire := g.cp.pwire[t+1]
	//geompc:nolint hotalloc numeric-mode task bodies are closures by design; pure-DES runs skip them and stay allocation-free
	return func() {
		p, z := st.seg(st.p, i), st.seg(st.z, i)
		b := st.beta
		for k := range p {
			p[k] = z[k] + b*p[k]
		}
		prec.Quantize(p, wire)
	}
}
