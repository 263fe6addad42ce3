// Package geo implements the geospatial statistics substrate of the paper
// (§III-A): spatial location generation, the squared-exponential and Matérn
// covariance families, covariance-matrix assembly (full and per-tile), and
// synthetic Gaussian-random-field data generation for the Monte-Carlo
// evaluation harness.
package geo

import (
	"fmt"
	"math"

	"geompc/internal/stats"
)

// Point is a spatial location in R^d (d = 2 or 3); unused coordinates are 0.
type Point struct {
	X, Y, Z float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// GenerateLocations returns n locations forming a jittered regular grid in
// the unit square (dim=2) or unit cube (dim=3) — the synthetic location
// model of ExaGeoStat-style Monte-Carlo studies: a √n×√n (or cube-root)
// lattice perturbed uniformly to avoid singular covariance matrices while
// keeping near-uniform coverage.
func GenerateLocations(n, dim int, rng *stats.RNG) []Point {
	if dim != 2 && dim != 3 {
		panic(fmt.Sprintf("geo: unsupported dimension %d", dim))
	}
	pts := make([]Point, 0, n)
	if dim == 2 {
		side := int(math.Ceil(math.Sqrt(float64(n))))
		jitter := 0.4 / float64(side)
		for i := 0; i < side && len(pts) < n; i++ {
			for j := 0; j < side && len(pts) < n; j++ {
				pts = append(pts, Point{
					X: (float64(i) + 0.5 + (rng.Float64()*2-1)*jitter*float64(side)) / float64(side),
					Y: (float64(j) + 0.5 + (rng.Float64()*2-1)*jitter*float64(side)) / float64(side),
				})
			}
		}
	} else {
		side := int(math.Ceil(math.Cbrt(float64(n))))
		jitter := 0.4 / float64(side)
		for i := 0; i < side && len(pts) < n; i++ {
			for j := 0; j < side && len(pts) < n; j++ {
				for k := 0; k < side && len(pts) < n; k++ {
					pts = append(pts, Point{
						X: (float64(i) + 0.5 + (rng.Float64()*2-1)*jitter*float64(side)) / float64(side),
						Y: (float64(j) + 0.5 + (rng.Float64()*2-1)*jitter*float64(side)) / float64(side),
						Z: (float64(k) + 0.5 + (rng.Float64()*2-1)*jitter*float64(side)) / float64(side),
					})
				}
			}
		}
	}
	// Morton-order the points so that nearby indices are nearby in space;
	// this produces the diagonal-dominant tile-norm structure (§V, Fig 2a)
	// the adaptive precision map exploits.
	sortMorton(pts)
	return pts
}

// sortMorton sorts points by Morton (Z-order) code of their quantized
// coordinates, preserving spatial locality in index order.
func sortMorton(pts []Point) {
	const bits = 10
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		x := uint64(min(max(p.X, 0), 1) * float64((1<<bits)-1))
		y := uint64(min(max(p.Y, 0), 1) * float64((1<<bits)-1))
		z := uint64(min(max(p.Z, 0), 1) * float64((1<<bits)-1))
		keys[i] = interleave3(x, y, z)
	}
	// Simple index sort (n is at most a few hundred thousand).
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	quicksortIdx(idx, keys, 0, len(idx)-1)
	out := make([]Point, len(pts))
	for i, j := range idx {
		out[i] = pts[j]
	}
	copy(pts, out)
}

func interleave3(x, y, z uint64) uint64 {
	var out uint64
	for b := uint(0); b < 10; b++ {
		out |= (x>>b&1)<<(3*b) | (y>>b&1)<<(3*b+1) | (z>>b&1)<<(3*b+2)
	}
	return out
}

func quicksortIdx(idx []int, keys []uint64, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && keys[idx[j]] < keys[idx[j-1]]; j-- {
					idx[j], idx[j-1] = idx[j-1], idx[j]
				}
			}
			return
		}
		p := keys[idx[(lo+hi)/2]]
		i, j := lo, hi
		for i <= j {
			for keys[idx[i]] < p {
				i++
			}
			for keys[idx[j]] > p {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quicksortIdx(idx, keys, lo, j)
			lo = i
		} else {
			quicksortIdx(idx, keys, i, hi)
			hi = j
		}
	}
}
