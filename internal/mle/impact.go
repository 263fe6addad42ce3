package mle

import (
	"fmt"
	"math"

	"geompc/internal/geo"
	"geompc/internal/linalg"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// ImpactRow reports the Monte-Carlo arithmetic probe (§V) at one accuracy
// level: the spread of the log-likelihood when the covariance tiles are
// perturbed by stochastic rounding at the precisions the level's kernel map
// would assign.
type ImpactRow struct {
	UReq float64
	// Reference is the exact (deterministically rounded) −ℓ(θ).
	Reference float64
	// MeanAbsDev and MaxAbsDev summarize |−ℓ_perturbed − Reference| over
	// the replicas that stayed positive definite.
	MeanAbsDev, MaxAbsDev float64
	Replicas              int
	// Broken counts replicas whose perturbation destroyed positive
	// definiteness — the strongest possible "this level is too aggressive
	// for this covariance" signal.
	Broken int
}

// PrecisionImpact implements the paper's Monte-Carlo arithmetic check: for
// each candidate u_req it builds the tile-precision map, re-quantizes every
// tile with *stochastic* rounding at its assigned input format, evaluates
// the exact log-likelihood on the perturbed matrix, and reports how much
// the likelihood moves. A level whose spread is far below the likelihood
// differences the optimizer must resolve is safe to use; this is how the
// application-dependent u_req of §V is chosen.
func PrecisionImpact(p *Problem, theta []float64, ureqs []float64, replicas int, seed uint64) ([]ImpactRow, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	if replicas <= 0 {
		return nil, fmt.Errorf("mle: replicas must be positive")
	}
	n := len(p.Locs)
	desc, err := tile.NewDesc(n, p.TileSize, 1, 1)
	if err != nil {
		return nil, err
	}

	buildMatrix := func() *tile.Matrix {
		m := tile.NewMatrix(desc, false)
		p.fill(m, theta)
		return m
	}

	ref := denseNLL(p, theta)
	var rows []ImpactRow
	for _, u := range ureqs {
		base := buildMatrix()
		var km [][]prec.Precision
		if u > 0 {
			km = precmap.FromMatrix(base, u, p.Ladder)
		} else {
			km = precmap.UniformAll(desc.NT, prec.FP64)
		}
		row := ImpactRow{UReq: u, Reference: ref, Replicas: replicas}
		ok := 0
		for r := 0; r < replicas; r++ {
			rng := stats.NewRNG(seed, uint64(r)+1)
			m := buildMatrix()
			for i := 0; i < desc.NT; i++ {
				for j := 0; j <= i; j++ {
					t := m.At(i, j)
					prec.QuantizeStochastic(t.Data, km[i][j].Format(), rng.Float64)
				}
			}
			v := denseNLLFromTiles(p, m)
			if math.IsInf(v, 0) {
				row.Broken++
				continue
			}
			ok++
			d := math.Abs(v - ref)
			row.MeanAbsDev += d
			if d > row.MaxAbsDev {
				row.MaxAbsDev = d
			}
		}
		if ok > 0 {
			row.MeanAbsDev /= float64(ok)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// denseNLL evaluates −ℓ(θ) exactly (FP64 dense path).
func denseNLL(p *Problem, theta []float64) float64 {
	n := len(p.Locs)
	a := geo.CovMatrix(p.Locs, p.Kernel, theta, p.Nugget)
	return nllFromDense(p, a, n)
}

// denseNLLFromTiles evaluates −ℓ on an already-built (possibly perturbed)
// tile matrix, exactly.
func denseNLLFromTiles(p *Problem, m *tile.Matrix) float64 {
	return nllFromDense(p, m.ToDense(), m.N)
}

func nllFromDense(p *Problem, a []float64, n int) float64 {
	if err := linalg.PotrfLower(n, a, n); err != nil {
		return math.Inf(1)
	}
	logdet := 0.0
	for i := 0; i < n; i++ {
		logdet += math.Log(a[i*n+i])
	}
	logdet *= 2
	y := append([]float64(nil), p.Z...)
	linalg.TrsvLNN(n, a, n, y)
	quad := 0.0
	for _, v := range y {
		quad += v * v
	}
	return 0.5 * (float64(n)*math.Log(2*math.Pi) + logdet + quad)
}
