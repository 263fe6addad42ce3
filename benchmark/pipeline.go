package main

import (
	"fmt"
	"math"

	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/linalg"
	"geompc/internal/mle"
	"geompc/internal/optimize"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/tile"
)

// fitTrace is what a traced fit records besides its spans: the optimizer's
// trajectory and the per-evaluation counts the per-layer metrics need.
type fitTrace struct {
	thetas   [][]float64 // every θ the optimizer asked for, in order
	rejected int         // evaluations that came back +Inf (Σ not SPD)
	entries  int         // lower-tile elements generated per evaluation
	fracs    [prec.Count]float64
	stc      float64 // Σ over evaluations of STC tasks / communicating tasks
	mapped   int     // evaluations that reached the precision map
}

// checkEvals is how many opening evaluations of a run's first traced fit
// are compared bit for bit with mle.Problem.NegLogLik.
const checkEvals = 8

// tracedFit is mle.Fit done from outside: the same log-space objective,
// bounds, tolerance and optimize.Minimize call as core.Fit, with the
// objective performing mle.Problem.NegLogLik's steps one public call at a
// time and a span around each. p must be fully specified (tile size,
// ladder, platform): the library's own defaulting is not reachable from
// here. check asks for the bit-equality probe on the opening evaluations.
func tracedFit(tr *tracer, parent int, p *mle.Problem, maxEvals int, check bool) (theta []float64, nll float64, ft *fitTrace, err error) {
	ft = &fitTrace{}
	np := p.Kernel.NumParams()
	start, lo, hi := mle.DefaultBounds(np)
	logOf := func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = math.Log(v)
		}
		return out
	}
	root := tr.begin("optimize", parent)
	xbuf := make([]float64, np)
	obj := func(y []float64) float64 {
		ev := tr.begin("glue.eval", root)
		defer tr.end(ev)
		for i, v := range y {
			xbuf[i] = math.Exp(v)
		}
		v, e := tracedNegLogLik(tr, ev, p, xbuf, ft)
		if e != nil {
			err = e
			return math.Inf(1)
		}
		if check && len(ft.thetas) <= checkEvals {
			tr.in("probe.check", ev, func() {
				want, e := p.NegLogLik(xbuf, nil)
				if e != nil {
					err = e
				} else if math.Float64bits(want) != math.Float64bits(v) {
					err = fmt.Errorf("traced pipeline NLL %v differs from mle.Problem.NegLogLik %v at θ=%v", v, want, xbuf)
				}
			})
		}
		return v
	}
	res, merr := optimize.Minimize(obj, logOf(start), logOf(lo), logOf(hi), optimize.Options{Tol: 1e-9, MaxEvals: maxEvals})
	tr.end(root)
	if merr != nil {
		return nil, 0, ft, merr
	}
	if err != nil {
		return nil, 0, ft, err
	}
	theta = make([]float64, np)
	for i, v := range res.X {
		theta[i] = math.Exp(v)
	}
	return theta, res.F, ft, nil
}

// tracedNegLogLik mirrors mle.Problem.NegLogLik (direct solver) step by
// step. After the numeric factorization it re-runs the same configuration
// in phantom mode and builds the task graph once more, as probes: numeric
// time is the real run minus the phantom run, engine time the phantom run
// minus the graph build.
func tracedNegLogLik(tr *tracer, ev int, p *mle.Problem, theta []float64, ft *fitTrace) (float64, error) {
	ft.thetas = append(ft.thetas, append([]float64(nil), theta...))
	n := len(p.Locs)
	var desc tile.Desc
	var mat *tile.Matrix
	var err error
	tr.in("tile.alloc", ev, func() {
		pg, qg := tile.SquarestGrid(p.Platform.Ranks)
		if desc, err = tile.NewDesc(n, p.TileSize, pg, qg); err == nil {
			mat = tile.NewMatrix(desc, false)
		}
	})
	if err != nil {
		return 0, err
	}
	entries := 0
	tr.in("geo.covtile", ev, func() {
		mat.Fill(func(t *tile.Tile, r0, c0 int) {
			geo.CovTile(p.Locs, r0, c0, t.M, t.N, p.Kernel, theta, p.Nugget, t.Data, t.N)
			entries += t.M * t.N
		})
	})
	ft.entries = entries

	var maps *precmap.Maps
	tr.in("precmap.map", ev, func() {
		var km [][]prec.Precision
		if p.UReq > 0 {
			km = precmap.FromMatrix(mat, p.UReq, p.Ladder)
		} else {
			km = precmap.UniformAll(desc.NT, prec.FP64)
		}
		maps = precmap.New(km, p.UReq)
		mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
	})
	for pr, f := range maps.Fractions() {
		ft.fracs[pr] += f
	}
	if stc, total := maps.STCCount(); total > 0 {
		ft.stc += float64(stc) / float64(total)
	}
	ft.mapped++

	cfg := cholesky.Config{Desc: desc, Maps: maps, Platform: p.Platform, Matrix: mat, Strategy: p.Strategy}
	var res *cholesky.Result
	tr.in("cholesky.run", ev, func() { res, err = cholesky.Run(cfg) })
	if err != nil {
		return 0, err
	}
	phantom := cfg
	phantom.Matrix = nil
	tr.in("probe.phantom", ev, func() { _, err = cholesky.Run(phantom) })
	if err != nil {
		return 0, err
	}
	tr.in("probe.graph", ev, func() { _, err = cholesky.PlanGraph(phantom) })
	if err != nil {
		return 0, err
	}
	if res.Err != nil {
		ft.rejected++
		return math.Inf(1), nil
	}

	nll := math.Inf(1)
	tr.in("mle.solve", ev, func() {
		logdet := 0.0
		for k := 0; k < desc.NT; k++ {
			t := mat.At(k, k)
			for i := 0; i < t.M; i++ {
				d := t.Data[i*t.N+i]
				if d <= 0 || math.IsNaN(d) {
					return
				}
				logdet += math.Log(d)
			}
		}
		logdet *= 2
		l := mat.LowerToDense()
		y := append([]float64(nil), p.Z...)
		linalg.TrsvLNN(n, l, n, y)
		quad := 0.0
		for _, v := range y {
			quad += v * v
		}
		if v := 0.5 * (float64(n)*math.Log(2*math.Pi) + logdet + quad); !math.IsNaN(v) {
			nll = v
		}
	})
	if math.IsInf(nll, 1) {
		ft.rejected++
	}
	return nll, nil
}

// denseNLL is the independent FP64 oracle: −ℓ(θ) from the dense covariance,
// an unblocked Cholesky and one triangular solve, sharing no tile, map,
// graph or engine code with the path under test.
func denseNLL(locs []geo.Point, z []float64, k geo.Kernel, theta []float64, nugget float64) (float64, error) {
	n := len(locs)
	a := geo.CovMatrix(locs, k, theta, nugget)
	if err := linalg.PotrfLower(n, a, n); err != nil {
		return 0, fmt.Errorf("dense oracle: covariance not SPD at θ=%v: %w", theta, err)
	}
	logdet := 0.0
	for i := 0; i < n; i++ {
		logdet += math.Log(a[i*n+i])
	}
	y := append([]float64(nil), z...)
	linalg.TrsvLNN(n, a, n, y)
	quad := 0.0
	for _, v := range y {
		quad += v * v
	}
	return 0.5 * (float64(n)*math.Log(2*math.Pi) + 2*logdet + quad), nil
}
