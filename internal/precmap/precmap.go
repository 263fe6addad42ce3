// Package precmap implements the paper's precision-selection machinery:
//
//   - the tile-centric kernel-precision map based on the Higham–Mary rule
//     ‖A_ij‖·NT/‖A‖ ≤ u_req/u_low (§V),
//   - the storage-precision map (FP16-family tiles stored in FP32, §V),
//   - Algorithm 2: the communication-precision map that decides, per POTRF
//     and TRSM task, whether sender-side conversion (STC) or receiver-side
//     conversion (TTC) applies (§VI),
//   - a location-aware sampled tile-norm estimator so precision maps can be
//     computed at Summit scale without materializing the matrix (phantom
//     mode).
//
// Reproduction note on Algorithm 2: the paper's pseudocode writes the row
// broadcast check as "for n = k+1 to m", which would include tile (m,m) —
// the DSYRK target that always executes in FP64 — and would therefore clamp
// every TRSM's communication precision to its storage precision, making STC
// unreachable. That contradicts §VI's own Fig 4, where TRSM tasks do apply
// STC. We therefore read the row bound as exclusive (n = k+1 .. m−1, GEMM
// successors only) and account for the always-FP64 SYRK successor by
// initializing the TRSM tile's communication precision at the tile's *own*
// kernel precision rather than FP16: the Higham–Mary rule already certifies
// that tile's data at that precision, so the SYRK update — whose error is
// ‖A_mk‖²·u_wire, second order in the bounded tile norm — stays within the
// u_req budget, while genuinely low-norm tiles still down-cast to FP16.
package precmap

import (
	"fmt"
	"math"

	"geompc/internal/geo"
	"geompc/internal/prec"
	"geompc/internal/stats"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// Maps bundles the three per-tile precision maps of a factorization. All
// maps cover the lower triangle: index [i][j] with j ≤ i. The methods
// Potrf, Trsm, Syrk and Gemm are the only definitions of the precision a
// task runs in; the simulator charges it and the numeric bodies compute in
// it.
type Maps struct {
	NT      int
	Kernel  [][]prec.Precision // precision of the numerical kernel on each tile
	Storage [][]prec.Precision // precision each tile is generated/stored in
	Comm    [][]prec.Precision // Algorithm 2: precision of communications issued by the task on each tile
}

// Potrf returns the precision POTRF(k) runs in: the diagonal tile's kernel
// precision.
func (m *Maps) Potrf(k int) prec.Precision { return m.Kernel[k][k] }

// Trsm returns the precision TRSM(i,k) runs in: the tile's storage
// precision, which is its kernel precision when that is FP64 or FP32 and
// FP32 otherwise (§V: the half-input formats have no TRSM).
func (m *Maps) Trsm(i, k int) prec.Precision { return m.Storage[i][k] }

// Syrk returns the precision SYRK(i,k) runs in: the kernel precision of
// its target, the diagonal tile (i,i).
func (m *Maps) Syrk(i, k int) prec.Precision { return m.Kernel[i][i] }

// Gemm returns the precision GEMM(i,j,k) runs in: the kernel precision of
// its output tile (i,j).
func (m *Maps) Gemm(i, j, k int) prec.Precision { return m.Kernel[i][j] }

// STC reports whether the task on tile (i,j) converts at the sender: its
// communication precision is below its storage precision.
func (m *Maps) STC(i, j int) bool { return m.Comm[i][j].Lower(m.Storage[i][j]) }

// TTC returns a shallow copy of m in which every tile communicates at its
// storage precision: receiver-side conversion everywhere, the lower bound
// of Fig 8.
func (m *Maps) TTC() *Maps {
	c := *m
	c.Comm = c.Storage
	return &c
}

// lowerTri allocates a lower-triangular [][]T.
func lowerTri[T any](nt int) [][]T {
	m := make([][]T, nt)
	for i := range m {
		m[i] = make([]T, i+1)
	}
	return m
}

// SelectPrecision returns the lowest precision on the ladder (ordered
// highest first) whose unit roundoff satisfies the Higham–Mary rule for a
// tile with the given norm ratio r = ‖A_ij‖·NT/‖A‖: r ≤ u_req/u_low.
// The first ladder entry is the fallback when no reduction is admissible.
func SelectPrecision(ratio, ureq float64, ladder []prec.Precision) prec.Precision {
	if len(ladder) == 0 {
		panic("precmap: empty precision ladder")
	}
	best := ladder[0]
	for _, p := range ladder {
		if ratio <= ureq/p.Eps() {
			best = p
		}
	}
	return best
}

// CheckUReq is the one check of a required accuracy: u_req is 0 (exact
// FP64) or finite and positive. NaN, ±Inf and negative values are errors,
// not an exact FP64 run (NaN) or an all-FP16 one (+Inf).
func CheckUReq(ureq float64) error {
	if math.IsNaN(ureq) || math.IsInf(ureq, 0) || ureq < 0 {
		return fmt.Errorf("precmap: u_req must be 0 (exact FP64) or finite and positive, got %g", ureq)
	}
	return nil
}

// NewKernelMap builds the kernel-precision map for an NT×NT tiling from a
// per-tile Frobenius-norm oracle and the global norm. Diagonal tiles are
// pinned to FP64 (strongest correlations, §V); off-diagonal tiles take the
// lowest admissible precision from ladder. At a global norm of 0 (every
// entry's square underflows) each ratio is NaN or +Inf, which no precision
// admits, so every tile falls back to ladder[0].
func NewKernelMap(nt int, norm func(i, j int) float64, globalNorm, ureq float64, ladder []prec.Precision) [][]prec.Precision {
	k := lowerTri[prec.Precision](nt)
	for i := 0; i < nt; i++ {
		k[i][i] = prec.FP64
		for j := 0; j < i; j++ {
			ratio := norm(i, j) * float64(nt) / globalNorm
			k[i][j] = SelectPrecision(ratio, ureq, ladder)
		}
	}
	return k
}

// New derives the full Maps (storage map, Algorithm 2 comm map) from a
// kernel-precision map. Its float argument is ignored: it stays only
// because the frozen benchmark/ tree passes one.
func New(kernel [][]prec.Precision, _ float64) *Maps {
	nt := len(kernel)
	m := &Maps{
		NT:      nt,
		Kernel:  kernel,
		Storage: lowerTri[prec.Precision](nt),
		Comm:    lowerTri[prec.Precision](nt),
	}
	for i := 0; i < nt; i++ {
		for j := 0; j <= i; j++ {
			m.Storage[i][j] = kernel[i][j].StoragePrecision()
		}
	}
	m.buildCommMap()
	return m
}

// buildCommMap is Algorithm 2. For each diagonal tile (k,k), the POTRF
// broadcast precision starts at FP32 (TRSM never runs below FP32) and is
// raised to FP64 if any successor TRSM in column k runs in FP64. For each
// off-diagonal tile (m,k), the TRSM broadcast precision starts at the
// tile's own kernel precision (covering the SYRK successor's consumption;
// see package comment) and is raised by the precisions of the
// row-broadcast GEMMs (m,n,k), n = k+1..m−1 and the column-broadcast GEMMs
// (n,m,k), n = m+1..NT−1, clamped at the tile's storage precision (TTC) as
// soon as it is reached. Successor precisions come from Trsm and Gemm, so
// the map follows any change to what those tasks run in.
func (m *Maps) buildCommMap() {
	nt := m.NT
	// Diagonal tiles: POTRF(k,k) broadcasts to TRSMs in column k.
	for k := 0; k < nt; k++ {
		c := prec.FP32
		for i := k + 1; i < nt; i++ {
			if m.Trsm(i, k) == prec.FP64 {
				c = prec.FP64
				break
			}
		}
		if k == nt-1 {
			// No successors; the tile issues no communication. Record
			// storage precision for uniformity.
			c = prec.FP64
		}
		m.Comm[k][k] = c
	}
	// Off-diagonal tiles: TRSM(m,k) broadcasts to GEMMs in row m and
	// column m. The floor is the tile's own kernel precision, which bounds
	// the SYRK consumer's error (see package comment).
	for k := 0; k <= nt-2; k++ {
		for i := k + 1; i < nt; i++ {
			c, storage := prec.Higher(m.Kernel[i][k], prec.FP16), m.Storage[i][k]
			for n := k + 1; n < nt && c.Lower(storage); n++ {
				switch {
				case n < i: // row broadcast
					c = prec.Higher(c, m.Gemm(i, n, k))
				case n > i: // column broadcast
					c = prec.Higher(c, m.Gemm(n, i, k))
				}
			}
			if !c.Lower(storage) {
				c = storage
			}
			m.Comm[i][k] = c
		}
	}
}

// Counts returns the number of lower-triangle tiles whose kernel executes
// in each precision — the percentages annotated on Fig 7.
func (m *Maps) Counts() map[prec.Precision]int {
	c := make(map[prec.Precision]int)
	for i := 0; i < m.NT; i++ {
		for j := 0; j <= i; j++ {
			c[m.Kernel[i][j]]++
		}
	}
	return c
}

// Fractions returns Counts normalized by the lower-triangle tile count.
func (m *Maps) Fractions() map[prec.Precision]float64 {
	total := float64(m.NT * (m.NT + 1) / 2)
	out := make(map[prec.Precision]float64)
	for p, n := range m.Counts() {
		out[p] = float64(n) / total
	}
	return out
}

// STCCount returns how many tasks (POTRF and TRSM, one per lower tile
// except the last diagonal) apply sender-side conversion.
func (m *Maps) STCCount() (stc, total int) {
	for i := 0; i < m.NT; i++ {
		for j := 0; j <= i; j++ {
			if i == j && i == m.NT-1 {
				continue // final POTRF issues no communication
			}
			total++
			if m.STC(i, j) {
				stc++
			}
		}
	}
	return stc, total
}

// Uniform returns a kernel map with FP64 on the diagonal and p on all
// off-diagonal tiles — the two-precision extremes (FP64/FP16_32,
// FP64/FP16) benchmarked in Fig 8, or full FP64/FP32 baselines when
// p is FP64/FP32.
func Uniform(nt int, p prec.Precision) [][]prec.Precision {
	k := lowerTri[prec.Precision](nt)
	for i := 0; i < nt; i++ {
		k[i][i] = prec.FP64
		for j := 0; j < i; j++ {
			k[i][j] = p
		}
	}
	return k
}

// UniformAll returns a kernel map with p everywhere, including the
// diagonal — the pure FP64/FP32 baselines.
func UniformAll(nt int, p prec.Precision) [][]prec.Precision {
	k := lowerTri[prec.Precision](nt)
	for i := 0; i < nt; i++ {
		for j := 0; j <= i; j++ {
			k[i][j] = p
		}
	}
	return k
}

// FromMatrix computes exact tile norms from a numeric tiled matrix and
// returns the kernel map for the given required accuracy; at u_req 0 it is
// every tile FP64, and no norm is computed.
func FromMatrix(m *tile.Matrix, ureq float64, ladder []prec.Precision) [][]prec.Precision {
	if ureq == 0 {
		return UniformAll(m.NT, prec.FP64)
	}
	norms, global := m.TileNorms()
	return NewKernelMap(m.NT, func(i, j int) float64 {
		return norms[m.Index(i, j)]
	}, global, ureq, ladder)
}

// EstimateTileNorms estimates the Frobenius norm of every lower tile of the
// covariance matrix Σ(θ) over locs — without materializing any tile — by
// sampling `samples` entries per tile and scaling by the tile area. It
// returns a norm oracle and the implied global norm. This powers precision
// maps at Summit scale (Fig 7's 409,600² matrix has 84·10⁹ entries; 256
// samples per tile need only ~5·10⁶ kernel evaluations).
//
// The sampled positions are drawn from rng one tile row at a time, tile by
// tile in row-major order; the row's tiles are then evaluated on GOMAXPROCS
// goroutines, each tile's sum of squares in sample order, and the global
// sum is taken in tile order afterwards — so the result does not depend on
// GOMAXPROCS. k is bound once, over geo.NoSpan, and shared by the goroutines.
func EstimateTileNorms(locs []geo.Point, d tile.Desc, k geo.Kernel, theta []float64, nugget float64, samples int, rng *stats.RNG) (norm func(i, j int) float64, global float64) {
	nt := d.NT
	est := make([][]float64, nt)
	// draws holds the current row's sampled (a, b) offsets, tile j's from
	// start[j]; a tile no larger than samples is summed exactly instead.
	var draws []int32
	start := make([]int, nt)
	bk := k.Bind(theta, geo.NoSpan)
	for i := 0; i < nt; i++ {
		m := d.TileDim(i)
		draws = draws[:0]
		for j := 0; j <= i; j++ {
			start[j] = len(draws)
			if n := d.TileDim(j); m*n > samples {
				for s := 0; s < samples; s++ {
					draws = append(draws, int32(rng.IntN(m)), int32(rng.IntN(n)))
				}
			}
		}
		est[i], _ = sweep.Run(i+1, sweep.Options{Workers: sweep.PerCore}, func(j int) (float64, error) {
			return tileSumSq(locs, d, i, j, draws[start[j]:], bk, nugget, samples), nil
		})
	}
	var ss float64
	for i, row := range est {
		for j, v := range row {
			if i == j {
				ss += v
			} else {
				ss += 2 * v
			}
			row[j] = math.Sqrt(v)
		}
	}
	return func(i, j int) float64 { return est[i][j] }, math.Sqrt(ss)
}

// tileSumSq estimates tile (i,j)'s squared Frobenius norm: exactly when it
// has at most `samples` entries, else from the (a, b) offsets leading ab,
// scaled by the tile area.
func tileSumSq(locs []geo.Point, d tile.Desc, i, j int, ab []int32, bk geo.BoundKernel, nugget float64, samples int) float64 {
	m, n := d.TileDim(i), d.TileDim(j)
	r0, c0 := i*d.TS, j*d.TS
	var sumsq float64
	cnt := samples
	if m*n <= samples {
		cnt = m * n
		for a := 0; a < m; a++ {
			for b := 0; b < n; b++ {
				v := covEntry(locs, r0+a, c0+b, bk, nugget)
				sumsq += v * v
			}
		}
	} else {
		for s := 0; s < 2*samples; s += 2 {
			v := covEntry(locs, r0+int(ab[s]), c0+int(ab[s+1]), bk, nugget)
			sumsq += v * v
		}
	}
	return sumsq / float64(cnt) * float64(m*n)
}

// Sampled is the precision map of a factorization that has no matrix
// (phantom mode): it draws d.N locations of kernel k from rng, estimates
// every tile's norm from `samples` entries per tile (EstimateTileNorms,
// same rng) and applies the Higham–Mary rule at ureq over prec.CholeskySet.
// At u_req 0 it is every tile FP64, and nothing is drawn from rng.
func Sampled(d tile.Desc, k geo.Kernel, theta []float64, nugget, ureq float64, samples int, rng *stats.RNG) [][]prec.Precision {
	if ureq == 0 {
		return UniformAll(d.NT, prec.FP64)
	}
	locs := geo.GenerateLocations(d.N, k.Dim(), rng)
	norm, global := EstimateTileNorms(locs, d, k, theta, nugget, samples, rng)
	return NewKernelMap(d.NT, norm, global, ureq, prec.CholeskySet)
}

func covEntry(locs []geo.Point, gi, gj int, bk geo.BoundKernel, nugget float64) float64 {
	if gi == gj {
		return bk.Cov(0) + nugget
	}
	return bk.Cov(locs[gi].Dist(locs[gj]))
}
