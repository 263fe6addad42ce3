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
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if dim == 3 {
		side = int(math.Ceil(math.Cbrt(float64(n))))
	}
	jitter := 0.4 / float64(side)
	coord := func(c int) float64 {
		return (float64(c) + 0.5 + (rng.Float64()*2-1)*jitter*float64(side)) / float64(side)
	}
	// The lattice in row-major order (the last coordinate fastest), each
	// point's coordinates drawn x first.
	pts := make([]Point, n)
	for t := range pts {
		if dim == 2 {
			pts[t] = Point{X: coord(t / side), Y: coord(t % side)}
		} else {
			pts[t] = Point{X: coord(t / side / side), Y: coord(t / side % side), Z: coord(t % side)}
		}
	}
	// Morton-order the points so that nearby indices are nearby in space;
	// this produces the diagonal-dominant tile-norm structure (§V, Fig 2a)
	// the adaptive precision map exploits.
	sortMorton(pts)
	return pts
}

// sortMorton sorts points by Morton (Z-order) code of their quantized
// coordinates, preserving spatial locality in index order. Each point's
// key and index travel packed in one word (key high, index low), and the
// sort compares keys alone: the order it leaves tied keys in is part of
// every sampled precision map, so the sort must stay this one.
func sortMorton(pts []Point) {
	pairs := make([]uint64, len(pts))
	for i, p := range pts {
		pairs[i] = mortonKey(p)<<32 | uint64(i)
	}
	quicksortKeyed(pairs, 0, len(pairs)-1)
	out := make([]Point, len(pts))
	for i, kv := range pairs {
		out[i] = pts[uint32(kv)]
	}
	copy(pts, out)
}

// mortonKey is p's Morton code: its coordinates clamped to [0,1],
// quantized to 10 bits each and interleaved (x in bit 3b, y in 3b+1, z in
// 3b+2).
func mortonKey(p Point) uint64 {
	const bits = 10
	x := uint64(min(max(p.X, 0), 1) * float64((1<<bits)-1))
	y := uint64(min(max(p.Y, 0), 1) * float64((1<<bits)-1))
	z := uint64(min(max(p.Z, 0), 1) * float64((1<<bits)-1))
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// spread3 moves bit b of a 10-bit v to bit 3b.
func spread3(v uint64) uint64 {
	v = (v | v<<16) & 0x030000ff
	v = (v | v<<8) & 0x0300f00f
	v = (v | v<<4) & 0x030c30c3
	return (v | v<<2) & 0x09249249
}

// quicksortKeyed sorts packed (key, index) words by key (the high 32 bits).
func quicksortKeyed(kv []uint64, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && kv[j]>>32 < kv[j-1]>>32; j-- {
					kv[j], kv[j-1] = kv[j-1], kv[j]
				}
			}
			return
		}
		p := kv[(lo+hi)/2] >> 32
		i, j := lo, hi
		for i <= j {
			for kv[i]>>32 < p {
				i++
			}
			for kv[j]>>32 > p {
				j--
			}
			if i <= j {
				kv[i], kv[j] = kv[j], kv[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quicksortKeyed(kv, lo, j)
			lo = i
		} else {
			quicksortKeyed(kv, i, hi)
			hi = j
		}
	}
}
