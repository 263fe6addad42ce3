package geo

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"geompc/internal/bessel"
	"geompc/internal/linalg"
	"geompc/internal/stats"
)

// BoundKernel is a covariance function bound to a fixed θ, allowing
// per-θ constants and tables to be hoisted out of matrix assembly. A bound
// kernel is safe for concurrent use.
type BoundKernel interface {
	// Cov returns C(h) at the bound parameters.
	Cov(h float64) float64
	// covRow sets h[j] = Cov(h[j]) for every j, bit for bit, in vector
	// lanes where the host has them.
	covRow(h []float64)
}

// lanesThenCov is covRow's loop: lanes(w, h) does whole vectors of width w
// from the start of h and returns how many entries it did; the vector it
// stopped before, or a tail shorter than one, goes through cov.
func lanesThenCov(h []float64, lanes func(w int, h []float64) int, cov func(float64) float64) {
	for len(h) > 0 {
		n := len(h)
		if w := laneWidth; w > 0 {
			h = h[lanes(w, h):]
			n = min(w, len(h))
		}
		for j := range h[:n] {
			h[j] = cov(h[j])
		}
		h = h[n:]
	}
}

// Kernel is an isotropic, stationary covariance function C(h; θ) of the
// distance h between two locations (§III-A).
type Kernel interface {
	// Cov returns C(h; θ). It must return the variance θ[0] at h = 0.
	Cov(h float64, theta []float64) float64
	// Bind returns the kernel at one θ, safe for concurrent use.
	Bind(theta []float64) BoundKernel
	// NumParams is the length of θ.
	NumParams() int
	// ParamNames names the entries of θ in order.
	ParamNames() []string
	// Name is the paper's identifier, e.g. "2D-sqexp".
	Name() string
	// Dim is the spatial dimension the kernel is evaluated in (2 or 3).
	Dim() int
}

// SqExp is the squared-exponential covariance
// C(h; θ) = σ²·exp(−h²/β) with θ = (σ², β), in 2 or 3 dimensions
// (the paper's 2D-sqexp / 3D-sqexp).
type SqExp struct {
	Dimension int // 2 or 3
}

// Cov implements Kernel.
func (SqExp) Cov(h float64, theta []float64) float64 { return sqexpBound{theta[0], theta[1]}.Cov(h) }

// Bind implements Kernel. Its rows run in vector lanes (sqexpRow) wherever
// a whole vector has every r = h²/β in [0, 708], through Cov elsewhere.
func (SqExp) Bind(theta []float64) BoundKernel { return sqexpBound{theta[0], theta[1]} }

// sqexpBound is SqExp at θ = (σ², β).
type sqexpBound struct{ sigma2, beta float64 }

func (b sqexpBound) Cov(h float64) float64 { return b.sigma2 * math.Exp(-h*h/b.beta) }

func (b sqexpBound) covRow(h []float64) {
	lanesThenCov(h, func(w int, h []float64) int { return sqexpRow(w, h, b.sigma2, b.beta) }, b.Cov)
}

// NumParams implements Kernel.
func (SqExp) NumParams() int { return 2 }

// ParamNames implements Kernel.
func (SqExp) ParamNames() []string { return []string{"sigma2", "beta"} }

// Name implements Kernel.
func (k SqExp) Name() string { return fmt.Sprintf("%dD-sqexp", k.Dimension) }

// Dim implements Kernel.
func (k SqExp) Dim() int { return k.Dimension }

// Matern is the Matérn covariance
// C(h; θ) = σ²·(2^{1−ν}/Γ(ν))·(h/β)^ν·K_ν(h/β) with θ = (σ², β, ν)
// (the paper's 2D-Matérn).
type Matern struct {
	Dimension int
}

// Cov implements Kernel.
func (k Matern) Cov(h float64, theta []float64) float64 {
	sigma2, beta, nu := theta[0], theta[1], theta[2]
	if h == 0 {
		return sigma2
	}
	r := h / beta
	// σ²·2^{1-ν}/Γ(ν)·r^ν·K_ν(r); for ν = 0.5 this is σ²·e^{−r}.
	if nu == 0.5 {
		return sigma2 * math.Exp(-r)
	}
	c := sigma2 * math.Exp2(1-nu) / math.Gamma(nu)
	v := c * math.Pow(r, nu) * bessel.K(nu, r)
	if math.IsNaN(v) || v < 0 {
		return 0 // deep tail underflow
	}
	return v
}

// maternBound is a Matérn evaluation bound to one θ. It hoists the
// normalization 2^{1-ν}/Γ(ν) out of the per-entry path and, for ν ≠ 0.5,
// replaces the per-entry Bessel evaluation by a lazily built table of
//
//	g(r) = norm·r^ν·e^r·K_ν(r),   C(h) = g(r)·e^{−r},   r = h/β,
//
// which is smooth in r, where K_ν itself spans hundreds of decades. Matrix
// assembly evaluates the kernel n²/2 times per likelihood evaluation at
// one θ; the table costs a few hundred Bessel evaluations instead.
//
// Contract: within 1e-14 relative of the direct evaluator (Matern.Cov) on
// the grid of TestMaternTableMatchesDirect, the residue being the direct
// routine's own rounding (DESIGN.md §3.1). A panel's coefficients depend
// only on (θ, panel index), so the bits returned for an h do not depend on
// which entries, tiles, goroutines or bound kernels came before it.
//
// The table is filled on use and shared: a panel is built once, under the
// table's lock, and published through its ready bit.
type maternBound struct {
	sigma2, beta, nu, norm float64
	tab                    *maternTable // nil: every h takes the direct path
}

// The table covers r ∈ (2^tabMinExp, 2^tabMaxExp] with four panels per
// binade, so a panel is named by the exponent and the top two mantissa
// bits of r, i.e. by Float64bits(r)>>50. Outside the range the direct
// evaluator is used: below it (h/β < 1e-6), and above it (h/β > 512), where
// K_ν itself is about to underflow and the direct product defines the value.
const (
	tabCoefs  = 13 // Chebyshev coefficients per panel
	tabMaxNu  = 8  // truncation stays below rounding up to ν ≈ 14
	tabMinExp = -20
	tabMaxExp = 9
	tabPanels = 4 * (tabMaxExp - tabMinExp)
	tabFirst  = (1023 + tabMinExp) << 2 // Float64bits(2^tabMinExp) >> 50
)

// maternTable is one θ's panels. Bit p of ready (word p>>6) is set, under
// mu, once panel p's coefficients are final; direct[p] marks a panel whose g
// is not finite at some node.
type maternTable struct {
	mu     sync.Mutex
	ready  [2]atomic.Uint64
	direct [tabPanels]bool // guarded by mu
	coef   [tabPanels][tabCoefs]float64
}

func (t *maternTable) isReady(p uint64) bool { return t.ready[p>>6].Load()>>(p&63)&1 != 0 }

// chebNodes are the roots of T_N on [−1, 1]; chebWeights[k][j] takes the
// values at those roots to the k-th Chebyshev coefficient (c_0 already
// halved), N = tabCoefs.
var chebNodes, chebWeights = func() (x [tabCoefs]float64, w [tabCoefs][tabCoefs]float64) {
	for j := range x {
		x[j] = math.Cos(math.Pi * (float64(j) + 0.5) / tabCoefs)
		for k := range w {
			w[k][j] = 2 * math.Cos(math.Pi*float64(k)*(float64(j)+0.5)/tabCoefs) / tabCoefs
		}
		w[0][j] /= 2
	}
	return x, w
}()

func (b *maternBound) Cov(h float64) float64 {
	if h == 0 {
		return b.sigma2
	}
	r := h / b.beta
	if b.nu == 0.5 {
		return b.sigma2 * math.Exp(-r)
	}
	if b.tab == nil {
		return b.direct(r)
	}
	// Panels are right-closed, (lo, hi], as the direct routine's switch of
	// series is (Temme up to and including r = 2): hence the −1.
	u := math.Float64bits(r) - 1
	p := u>>50 - tabFirst
	if p >= tabPanels || !b.tab.isReady(p) && !b.build(p) { // p: also r ≤ 0, ±Inf and NaN
		return b.direct(r)
	}
	// The low 50 mantissa bits are r's position within the panel.
	t := float64(u&(1<<50-1)+1)*(1.0/(1<<49)) - 1
	c := &b.tab.coef[p]
	t2 := 2 * t
	// One rounding per operation (the conversions forbid fusing into FMA):
	// the lanes of covRow repeat exactly this sequence.
	var b1, b2 float64
	for k := tabCoefs - 1; k > 0; k-- {
		b1, b2 = float64(t2*b1)-b2+c[k], b1
	}
	v := (float64(t*b1) - b2 + c[0]) * math.Exp(-r)
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

// covRow runs in lanes (maternRow) where every entry of a vector lies in a
// built panel, through Cov otherwise.
func (b *maternBound) covRow(h []float64) {
	lanesThenCov(h, func(w int, h []float64) int {
		if b.tab == nil {
			return 0
		}
		return maternRow(w, h, b.beta, b.tab.ready[0].Load(), b.tab.ready[1].Load(), &b.tab.coef)
	}, b.Cov)
}

// direct is Matern.Cov for ν ≠ 0.5 at r = h/β > 0, with the normalization
// hoisted.
func (b *maternBound) direct(r float64) float64 {
	v := b.norm * math.Pow(r, b.nu) * bessel.K(b.nu, r)
	if math.IsNaN(v) || v < 0 {
		return 0 // deep tail underflow
	}
	return v
}

// build samples g at panel p's Chebyshev nodes with the direct routines
// and stores its coefficients, unless another goroutine has. It reports
// whether the panel is ready; a panel where g is not finite goes direct.
func (b *maternBound) build(p uint64) bool {
	b.tab.mu.Lock()
	defer b.tab.mu.Unlock()
	if b.tab.direct[p] || b.tab.isReady(p) {
		return !b.tab.direct[p]
	}
	lo := math.Float64frombits((p + tabFirst) << 50)
	hi := math.Float64frombits((p + tabFirst + 1) << 50)
	mid, half := 0.5*(lo+hi), 0.5*(hi-lo)
	var g [tabCoefs]float64
	for j, x := range chebNodes {
		r := mid + half*x
		g[j] = b.norm * math.Pow(r, b.nu) * bessel.KScaled(b.nu, r)
		if math.IsNaN(g[j]) || math.IsInf(g[j], 0) {
			b.tab.direct[p] = true
			return false
		}
	}
	c := &b.tab.coef[p]
	for k := range c {
		var s float64
		for j, gj := range g {
			s += chebWeights[k][j] * gj
		}
		c[k] = s
	}
	w := &b.tab.ready[p>>6]
	w.Store(w.Load() | 1<<(p&63))
	return true
}

// Bind implements Kernel with precomputed constants; see maternBound. At a
// θ outside the model (ν ≤ 0, β ≤ 0, anything NaN) it returns what Cov
// returns.
func (k Matern) Bind(theta []float64) BoundKernel {
	sigma2, beta, nu := theta[0], theta[1], theta[2]
	b := &maternBound{
		sigma2: sigma2, beta: beta, nu: nu,
		norm: sigma2 * math.Exp2(1-nu) / math.Gamma(nu),
	}
	if nu > 0 && nu <= tabMaxNu && nu != 0.5 && beta > 0 {
		b.tab = new(maternTable)
	}
	return b
}

// NumParams implements Kernel.
func (Matern) NumParams() int { return 3 }

// ParamNames implements Kernel.
func (Matern) ParamNames() []string { return []string{"sigma2", "beta", "nu"} }

// Name implements Kernel.
func (k Matern) Name() string { return fmt.Sprintf("%dD-Matern", k.Dimension) }

// Dim implements Kernel.
func (k Matern) Dim() int { return k.Dimension }

// CovMatrix assembles the full n×n covariance matrix Σ(θ) over locs into a
// freshly allocated row-major slice. A tiny diagonal regularization `nugget`
// (0 for none) guards POTRF against indefiniteness when correlations are
// near-singular.
func CovMatrix(locs []Point, k Kernel, theta []float64, nugget float64) []float64 {
	n := len(locs)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = k.Cov(0, theta) + nugget
		for j := 0; j < i; j++ {
			v := k.Cov(locs[i].Dist(locs[j]), theta)
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	return a
}

// CovTile fills the m×n tile dst (stride ldd) with Σ entries for the block
// whose rows are locs[rowStart:rowStart+m] and columns
// locs[colStart:colStart+n]. Diagonal entries receive the nugget. This is
// the tile-generation kernel of the tiled framework: each tile is built
// independently, on demand. A caller filling many tiles at one θ should
// Bind once and call FillTile; the entries are the same bits either way.
func CovTile(locs []Point, rowStart, colStart, m, n int, k Kernel, theta []float64, nugget float64, dst []float64, ldd int) {
	FillTile(k.Bind(theta), locs, rowStart, colStart, m, n, nugget, dst, ldd)
}

// FillTile is CovTile for an already bound kernel.
func FillTile(bk BoundKernel, locs []Point, rowStart, colStart, m, n int, nugget float64, dst []float64, ldd int) {
	diag := bk.Cov(0) + nugget
	// A tile on the diagonal holds (i,j) and (j,i) for all i, j < sq.
	// Dist is symmetric to the bit, so only the lower one is evaluated.
	sq := 0
	if rowStart == colStart {
		sq = min(m, n)
	}
	for i := 0; i < m; i++ {
		pi := locs[rowStart+i]
		row := dst[i*ldd : i*ldd+n]
		// Distances first, kernel second. Fused, each SQRTSD merges into
		// the register holding the previous kernel value, which chains the
		// entries one behind the other (3× slower on sqexp).
		for j := range row {
			row[j] = pi.Dist(locs[colStart+j])
		}
		// Entries [lo, hi) are the diagonal one and those mirrored below.
		lo, hi := n, n
		if d := rowStart + i - colStart; d >= 0 && d < n {
			lo, hi = d, max(d+1, sq)
			row[d] = diag
		}
		bk.covRow(row[:lo])
		bk.covRow(row[hi:])
	}
	for i := 0; i < sq; i++ {
		for j := i + 1; j < sq; j++ {
			dst[i*ldd+j] = dst[j*ldd+i]
		}
	}
}

// SimulateField draws Z ~ N(0, Σ(θ)) over locs: it factorizes Σ = L·Lᵀ in
// FP64 and returns Z = L·e with e standard normal. This produces the
// synthetic datasets of the Monte-Carlo study (§VII-B). The factorization
// cost is O(n³); intended for n up to a few thousand.
func SimulateField(locs []Point, k Kernel, theta []float64, nugget float64, rng *stats.RNG) ([]float64, error) {
	n := len(locs)
	a := CovMatrix(locs, k, theta, nugget)
	if err := linalg.PotrfLower(n, a, n); err != nil {
		return nil, fmt.Errorf("geo: covariance not SPD under θ=%v: %w", theta, err)
	}
	e := rng.NormVec(make([]float64, n))
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		row := a[i*n : i*n+i+1]
		for l, v := range row {
			s += v * e[l]
		}
		z[i] = s
	}
	return z, nil
}
