// Package tile provides the tile-partitioned symmetric matrix the adaptive
// mixed-precision Cholesky operates on (§V): a lower-triangular collection
// of square tiles, each carrying its own storage-precision metadata, mapped
// onto a P×Q process grid by 2D block-cyclic distribution.
package tile

import (
	"fmt"
	"math"

	"geompc/internal/linalg"
	"geompc/internal/prec"
	"geompc/internal/sweep"
)

// Desc describes the tiling and distribution of a symmetric N×N matrix.
type Desc struct {
	N  int // matrix order
	TS int // tile size (edge length of full tiles)
	NT int // number of tile rows/columns = ceil(N/TS)
	P  int // process-grid rows
	Q  int // process-grid columns (P ≤ Q, as square as possible)
}

// NewDesc validates and completes a descriptor. The process grid defaults
// to 1×1 when p or q is zero.
func NewDesc(n, ts, p, q int) (Desc, error) {
	if n <= 0 || ts <= 0 {
		return Desc{}, fmt.Errorf("tile: invalid dimensions n=%d ts=%d", n, ts)
	}
	if p <= 0 {
		p = 1
	}
	if q <= 0 {
		q = 1
	}
	if p > q {
		return Desc{}, fmt.Errorf("tile: process grid %dx%d violates P ≤ Q", p, q)
	}
	return Desc{N: n, TS: ts, NT: (n + ts - 1) / ts, P: p, Q: q}, nil
}

// SquarestGrid returns the most-square P×Q factorization of nranks with
// P ≤ Q, the layout rule of §VII-A.
func SquarestGrid(nranks int) (p, q int) {
	if nranks <= 0 {
		return 1, 1
	}
	for d := int(isqrt(nranks)); d >= 1; d-- {
		if nranks%d == 0 {
			return d, nranks / d
		}
	}
	return 1, nranks
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// TileDim returns the edge length of tile row/column k (the trailing tile
// may be partial).
func (d Desc) TileDim(k int) int {
	if k < 0 || k >= d.NT {
		panic(fmt.Sprintf("tile: index %d out of range [0,%d)", k, d.NT))
	}
	if k == d.NT-1 {
		if r := d.N - k*d.TS; r != d.TS && r > 0 {
			return r
		}
	}
	return d.TS
}

// RankOf returns the owner rank of tile (i, j) under 2D block-cyclic
// distribution over the P×Q grid.
func (d Desc) RankOf(i, j int) int {
	return (i%d.P)*d.Q + j%d.Q
}

// Ranks returns the total number of ranks in the grid.
func (d Desc) Ranks() int { return d.P * d.Q }

// LowerTileCount returns the number of stored tiles NT·(NT+1)/2.
func (d Desc) LowerTileCount() int { return d.NT * (d.NT + 1) / 2 }

// Index numbers lower tile (i, j), j ≤ i, in the packed row-major lower
// triangle: (0,0), (1,0), (1,1), (2,0), … It is the one tile numbering —
// of the matrix's tiles, the factorization's data and every per-tile table
// — and ranges over [0, LowerTileCount()).
func (d Desc) Index(i, j int) int { return i*(i+1)/2 + j }

// Tile is one block of the matrix: Data holds the M×N block row-major
// (stride N).
type Tile struct {
	I, J int // tile coordinates (I ≥ J: lower triangle)
	M, N int // block dimensions
	Data []float64
}

// Norm returns the Frobenius norm of the tile's data.
func (t *Tile) Norm() float64 {
	return linalg.FrobeniusNormMat(t.M, t.N, t.Data, t.N)
}

// Matrix is a symmetric matrix stored as its lower triangle of tiles.
type Matrix struct {
	Desc
	tiles []*Tile // indexed by Desc.Index
}

// NewMatrix allocates the tiles and their data. The bool is ignored: a
// Matrix always holds data (a cost-only factorization has no Matrix).
func NewMatrix(d Desc, _ bool) *Matrix {
	m := &Matrix{Desc: d, tiles: make([]*Tile, d.LowerTileCount())}
	for i := 0; i < d.NT; i++ {
		for j := 0; j <= i; j++ {
			mi, nj := d.TileDim(i), d.TileDim(j)
			m.tiles[d.Index(i, j)] = &Tile{I: i, J: j, M: mi, N: nj, Data: make([]float64, mi*nj)}
		}
	}
	return m
}

// At returns tile (i, j) of the lower triangle; it panics if j > i.
func (m *Matrix) At(i, j int) *Tile {
	if j > i || i >= m.NT || j < 0 {
		panic(fmt.Sprintf("tile: At(%d,%d) outside lower triangle NT=%d", i, j, m.NT))
	}
	return m.tiles[m.Index(i, j)]
}

// Fill populates every tile by calling gen with the tile and its global
// offsets.
func (m *Matrix) Fill(gen func(t *Tile, rowStart, colStart int)) {
	for _, t := range m.tiles {
		gen(t, t.I*m.TS, t.J*m.TS)
	}
}

// FillParallel populates every tile like Fill, on a sweep.PerCore pool
// (min(GOMAXPROCS, tiles) workers), and returns when all are filled. gen is
// called from all of them at once and must be safe for that.
func (m *Matrix) FillParallel(gen func(t *Tile, rowStart, colStart int)) {
	sweep.Run(len(m.tiles), sweep.Options{Workers: sweep.PerCore}, func(i int) (struct{}, error) {
		gen(m.tiles[i], m.tiles[i].I*m.TS, m.tiles[i].J*m.TS)
		return struct{}{}, nil
	})
}

// SetStorage rounds every tile's data through its precision under a
// storage-precision map (indexed [i][j], lower triangle), modeling the
// matrix-generation phase of §V where FP16-family tiles are generated
// directly in FP32. Rounding is idempotent, so applying the same map twice
// leaves the same bits.
func (m *Matrix) SetStorage(storage func(i, j int) prec.Precision) {
	for _, t := range m.tiles {
		linalg.Quantize(t.Data, storage(t.I, t.J))
	}
}

// TileNorms returns the Frobenius norm of every lower tile, indexed by
// Desc.Index, plus the global Frobenius norm of the full symmetric
// matrix (off-diagonal tiles counted twice). Four consecutive tiles of one
// size — tiles of one shape are consecutive in Index order — are summed in
// one loop (linalg.FrobeniusNorms4), each with Norm's bits.
func (m *Matrix) TileNorms() (norms []float64, global float64) {
	norms = make([]float64, len(m.tiles))
	for idx := 0; idx < len(m.tiles); idx++ {
		q := m.tiles[idx:min(idx+4, len(m.tiles))]
		if n := len(q[0].Data); len(q) == 4 && len(q[1].Data) == n && len(q[2].Data) == n && len(q[3].Data) == n {
			n4 := linalg.FrobeniusNorms4(q[0].Data, q[1].Data, q[2].Data, q[3].Data)
			copy(norms[idx:], n4[:])
			idx += 3
			continue
		}
		norms[idx] = m.tiles[idx].Norm()
	}
	var ss float64
	for idx, t := range m.tiles {
		if nm := norms[idx]; t.I == t.J {
			ss += nm * nm
		} else {
			ss += 2 * nm * nm
		}
	}
	return norms, math.Sqrt(ss)
}

// ToDense reconstructs the full symmetric matrix (both triangles) into a
// fresh row-major slice — for tests and small-scale verification only.
func (m *Matrix) ToDense() []float64 {
	n := m.N
	out := make([]float64, n*n)
	for _, t := range m.tiles {
		r0, c0 := t.I*m.TS, t.J*m.TS
		for i := 0; i < t.M; i++ {
			for j := 0; j < t.N; j++ {
				v := t.Data[i*t.N+j]
				out[(r0+i)*n+c0+j] = v
				out[(c0+j)*n+r0+i] = v
			}
		}
	}
	return out
}

// LowerToDense reconstructs only the lower triangle (upper left zero),
// as produced by the Cholesky factorization.
func (m *Matrix) LowerToDense() []float64 {
	n := m.N
	out := make([]float64, n*n)
	for _, t := range m.tiles {
		r0, c0 := t.I*m.TS, t.J*m.TS
		for i := 0; i < t.M; i++ {
			for j := 0; j < t.N; j++ {
				gi, gj := r0+i, c0+j
				if gj <= gi {
					out[gi*n+gj] = t.Data[i*t.N+j]
				}
			}
		}
	}
	return out
}

// ForwardSolve solves L·x = y in place of y, where L is the lower factor the
// Cholesky factorization left in the tiles. Each row subtracts its products
// in ascending column order — tiles (i,0) … (i,i−1), then the diagonal tile
// up to the pivot — so the result is bit-identical to linalg.TrsvLNN on
// LowerToDense without assembling the n² dense copy.
func (m *Matrix) ForwardSolve(y []float64) {
	for ti := 0; ti < m.NT; ti++ {
		d := m.At(ti, ti)
		yi := y[ti*m.TS:][:d.M]
		for tj := 0; tj < ti; tj++ {
			t := m.At(ti, tj)
			yj := y[tj*m.TS:][:t.N]
			for i := range yi {
				s := yi[i]
				for l, v := range t.Data[i*t.N:][:t.N] {
					s -= v * yj[l]
				}
				yi[i] = s
			}
		}
		linalg.TrsvLNN(d.M, d.Data, d.N, yi)
	}
}
