package geo

import (
	"errors"
	"fmt"
	"math"

	"geompc/internal/bessel"
	"geompc/internal/linalg"
	"geompc/internal/stats"
)

// BoundKernel is a covariance function bound to a fixed θ, allowing
// per-θ constants and tables to be hoisted out of matrix assembly. A bound
// kernel is immutable once Bind returns, and so safe for concurrent use.
type BoundKernel interface {
	// Cov returns C(h) at the bound parameters: the variance θ[0] at h = 0.
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
	// Bind returns the kernel at one θ, safe for concurrent use. span gives
	// the least and the greatest distance the caller will evaluate it at: a
	// kernel that tabulates (the Matérn's) calls it once and builds its table
	// over that range, any other does not call it. At a distance outside
	// span the bound kernel returns the direct evaluator's bits; bound over
	// NoSpan it is the direct evaluator at every distance.
	Bind(theta []float64, span func() (lo, hi float64)) BoundKernel
	// NumParams is the length of θ.
	NumParams() int
	// ParamNames names the entries of θ in order.
	ParamNames() []string
	// Name is the paper's identifier, e.g. "2D-sqexp".
	Name() string
	// Dim is the spatial dimension the kernel is evaluated in (2 or 3).
	Dim() int
}

// CheckKernel is the one check of a covariance model before geo evaluates
// it. bad is what no θ mends: a nil kernel, one in other than 2 or 3
// dimensions, a dim other than the kernel's (dim is given by callers that
// draw locations of their own) or a θ of the wrong length. infeasible,
// checked only once bad is nil, names the first θ entry that is not finite
// and positive: every parameter is a scale. A caller that refuses both
// returns errors.Join(CheckKernel(…)); the likelihood rejects an infeasible
// θ as a point outside the model.
func CheckKernel(k Kernel, theta []float64, dim ...int) (bad, infeasible error) {
	if k == nil {
		return errors.New("geo: nil kernel"), nil
	}
	if d := k.Dim(); d != 2 && d != 3 {
		return fmt.Errorf("geo: kernel %s: unsupported dimension %d (want 2 or 3)", k.Name(), d), nil
	}
	for _, d := range dim {
		if d != k.Dim() {
			return fmt.Errorf("geo: dimension %d does not match kernel %s's dimension %d", d, k.Name(), k.Dim()), nil
		}
	}
	if len(theta) != k.NumParams() {
		return fmt.Errorf("geo: kernel %s needs %d parameters, got %d", k.Name(), k.NumParams(), len(theta)), nil
	}
	for i, v := range theta {
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("geo: kernel %s: %s = %g must be finite and positive", k.Name(), k.ParamNames()[i], v)
		}
	}
	return nil, nil
}

// SqExp is the squared-exponential covariance
// C(h; θ) = σ²·exp(−h²/β) with θ = (σ², β), in 2 or 3 dimensions
// (the paper's 2D-sqexp / 3D-sqexp).
type SqExp struct {
	Dimension int // 2 or 3
}

// Bind implements Kernel. Its rows run in vector lanes (sqexpRow) wherever
// a whole vector has every r = h²/β in [0, 708], through Cov elsewhere.
func (SqExp) Bind(theta []float64, _ func() (lo, hi float64)) BoundKernel {
	return sqexpBound{theta[0], theta[1]}
}

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

// nonneg maps the deep tail's underflow (NaN or negative) to 0.
func nonneg(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

// maternBound is a Matérn evaluation bound to one θ. It hoists the
// normalization 2^{1-ν}/Γ(ν) and the order's Bessel constants out of its
// rows and, for ν ≠ 0.5, replaces the per-entry Bessel evaluation over the
// bound span by a table of
//
//	g(r) = norm·r^ν·e^r·K_ν(r),   C(h) = g(r)·e^{−r},   r = h/β,
//
// which is smooth in r, where K_ν itself spans hundreds of decades. Matrix
// assembly evaluates the kernel n²/2 times per likelihood evaluation at
// one θ; the table costs a few hundred Bessel evaluations instead, all made
// by Bind in one batch of vector lanes (bessel.Order).
//
// Contract: within 1e-14 relative of the direct evaluator (a kernel bound
// over NoSpan) on the grid of TestMaternTableMatchesDirect, the residue
// being the direct routine's own rounding (DESIGN.md §3.1). A panel's coefficients depend
// only on (θ, panel index), so the bits returned for an h inside the bound
// span do not depend on the span, nor on which entries, tiles, goroutines
// or bound kernels came before it. Outside the built panels — r outside
// the table, outside the span, or in a panel where g is not finite at a
// node — an entry takes the direct path, and has the direct evaluator's bits.
type maternBound struct {
	sigma2, beta, nu, norm float64
	order                  *bessel.Order
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

// maternTable is one θ's panels. Bit p of ready (word p>>6) is set once
// panel p's coefficients are built; Bind builds them all before it returns.
type maternTable struct {
	ready [2]uint64
	coef  [tabPanels][tabCoefs]float64
}

func (t *maternTable) isReady(p uint64) bool { return t.ready[p>>6]>>(p&63)&1 != 0 }

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
	// Panels are right-closed, (lo, hi], as the direct routine's switch of
	// series is (Temme up to and including r = 2): hence the −1.
	u := math.Float64bits(r) - 1
	p := u>>50 - tabFirst
	if b.tab == nil || p >= tabPanels || !b.tab.isReady(p) { // p: also r ≤ 0, ±Inf and NaN
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
	return nonneg((float64(t*b1) - b2 + c[0]) * math.Exp(-r))
}

// covRow runs in lanes (maternRow) where every entry of a vector lies in a
// built panel, through Cov otherwise. Without a table (an empty span, ν
// above tabMaxNu, a θ outside the model) the row is direct, its Bessel
// values taken a row at a time through the bound order.
func (b *maternBound) covRow(h []float64) {
	if b.tab == nil && b.nu != 0.5 {
		b.directRow(h)
		return
	}
	lanesThenCov(h, func(w int, h []float64) int {
		if b.tab == nil {
			return 0
		}
		return maternRow(w, h, b.beta, b.tab.ready[0], b.tab.ready[1], &b.tab.coef)
	}, b.Cov)
}

// direct is σ²·2^{1-ν}/Γ(ν)·r^ν·K_ν(r), C(h) at r = h/β > 0 for ν ≠ 0.5
// (Cov takes ν = 0.5 as σ²·e^{−r}).
func (b *maternBound) direct(r float64) float64 {
	return nonneg(b.norm * math.Pow(r, b.nu) * bessel.K(b.nu, r))
}

// directRow sets h[j] = Cov(h[j]) on the direct path, for ν ≠ 0.5, K_ν
// evaluated for a stretch of the row at a time.
func (b *maternBound) directRow(h []float64) {
	var r, k [64]float64
	for len(h) > 0 {
		n := min(len(h), len(r))
		for j, hj := range h[:n] {
			r[j] = hj / b.beta
		}
		b.order.K(k[:n], r[:n])
		for j, hj := range h[:n] {
			if hj == 0 {
				h[j] = b.sigma2
			} else {
				h[j] = nonneg(b.norm * math.Pow(r[j], b.nu) * k[j])
			}
		}
		h = h[n:]
	}
}

// build returns the table over r ∈ [rlo, rhi], or nil if no panel holds
// such an r: g at the Chebyshev nodes of every such panel in one call of
// the bound order, and the coefficients of each panel finite at its nodes.
func (b *maternBound) build(rlo, rhi float64) *maternTable {
	// The panel of r as in Cov, r ≤ 0 taken as the least subnormal: below
	// the table, like any r ≤ 2⁻²⁰.
	q := func(r float64) int { return int((math.Float64bits(max(r, 5e-324))-1)>>50) - tabFirst }
	p0, p1 := max(q(rlo), 0), min(q(rhi)+1, tabPanels)
	if p0 >= p1 {
		return nil
	}
	rs := make([]float64, 2*tabCoefs*(p1-p0))
	rs, g := rs[:len(rs)/2], rs[len(rs)/2:]
	for p := p0; p < p1; p++ {
		lo := math.Float64frombits(uint64(p+tabFirst) << 50)
		hi := math.Float64frombits(uint64(p+tabFirst+1) << 50)
		mid, half := 0.5*(lo+hi), 0.5*(hi-lo)
		for j, x := range chebNodes {
			rs[(p-p0)*tabCoefs+j] = mid + half*x
		}
	}
	b.order.KScaled(g, rs)
	t := new(maternTable)
panels:
	for p := p0; p < p1; p++ {
		gp := g[(p-p0)*tabCoefs : (p-p0+1)*tabCoefs]
		for j, r := range rs[(p-p0)*tabCoefs : (p-p0+1)*tabCoefs] {
			gp[j] = b.norm * math.Pow(r, b.nu) * gp[j]
			if math.IsNaN(gp[j]) || math.IsInf(gp[j], 0) {
				continue panels // g is not finite here: the panel stays direct
			}
		}
		for k := range t.coef[p] {
			var s float64
			for j, gj := range gp {
				s += chebWeights[k][j] * gj
			}
			t.coef[p][k] = s
		}
		t.ready[p>>6] |= 1 << (p & 63)
	}
	return t
}

// Bind implements Kernel with precomputed constants; see maternBound. At a
// θ outside the model (ν ≤ 0, β ≤ 0, anything NaN) it tabulates nothing,
// as over NoSpan.
func (k Matern) Bind(theta []float64, span func() (lo, hi float64)) BoundKernel {
	sigma2, beta, nu := theta[0], theta[1], theta[2]
	b := &maternBound{
		sigma2: sigma2, beta: beta, nu: nu,
		norm:  sigma2 * math.Exp2(1-nu) / math.Gamma(nu),
		order: bessel.NewOrder(nu),
	}
	if nu > 0 && nu <= tabMaxNu && nu != 0.5 && beta > 0 {
		lo, hi := span()
		b.tab = b.build(lo/beta, hi/beta)
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
// near-singular. Every entry has the direct evaluator's bits: k is bound
// over NoSpan.
func CovMatrix(locs []Point, k Kernel, theta []float64, nugget float64) []float64 {
	n := len(locs)
	a := make([]float64, n*n)
	FillTile(k.Bind(theta, NoSpan), locs, 0, 0, n, n, nugget, a, n)
	return a
}

// NoSpan is the empty span (lo > hi): a kernel bound over it tabulates
// nothing and evaluates every distance directly.
func NoSpan() (lo, hi float64) { return math.Inf(1), math.Inf(-1) }

// Span returns the least nonzero and the greatest distance between a point
// of ps and one of qs, the span of the Σ(θ) entries between them (an empty
// one if there are none).
func Span(ps, qs []Point) (lo, hi float64) {
	lo, hi = NoSpan()
	for _, p := range ps {
		for _, q := range qs {
			if h := p.Dist(q); h > 0 {
				lo, hi = min(lo, h), max(hi, h)
			}
		}
	}
	return lo, hi
}

// CovTile fills the m×n tile dst (stride ldd) with Σ entries for the block
// whose rows are locs[rowStart:rowStart+m] and columns
// locs[colStart:colStart+n]. Diagonal entries receive the nugget. This is
// the tile-generation kernel of the tiled framework: each tile is built
// independently, on demand, with k bound over the tile's own span. A caller
// filling many tiles at one θ should Bind once, over the span of all of
// them, and call FillTile; the entries are the same bits either way.
func CovTile(locs []Point, rowStart, colStart, m, n int, k Kernel, theta []float64, nugget float64, dst []float64, ldd int) {
	bk := k.Bind(theta, func() (float64, float64) {
		return Span(locs[rowStart:rowStart+m], locs[colStart:colStart+n])
	})
	FillTile(bk, locs, rowStart, colStart, m, n, nugget, dst, ldd)
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
		// Entries [lo, hi) are the diagonal one and those mirrored below.
		lo, hi := n, n
		if d := rowStart + i - colStart; d >= 0 && d < n {
			lo, hi = d, max(d+1, sq)
			row[d] = diag
		}
		// Distances first, kernel second. Fused, each SQRTSD merges into
		// the register holding the previous kernel value, which chains the
		// entries one behind the other (3× slower on sqexp).
		dists(row[:lo], pi, locs[colStart:])
		dists(row[hi:], pi, locs[colStart+hi:])
		bk.covRow(row[:lo])
		bk.covRow(row[hi:])
	}
	for i := 0; i < sq; i++ {
		for j := i + 1; j < sq; j++ {
			dst[i*ldd+j] = dst[j*ldd+i]
		}
	}
}

// dists sets dst[j] = p.Dist(qs[j]) for every j of dst.
func dists(dst []float64, p Point, qs []Point) {
	qs = qs[:len(dst)]
	for j, q := range qs {
		dst[j] = p.Dist(q)
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
