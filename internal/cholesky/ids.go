// Package cholesky implements the adaptive mixed-precision tile Cholesky
// factorization of Algorithm 1 as a parameterized task graph over the
// runtime engine: POTRF, TRSM, SYRK and GEMM task classes with algebraic
// dependencies, per-tile kernel precisions from the precision map, and the
// automated conversion strategy of Algorithm 2 deciding the wire format of
// every communication (STC at the sender or TTC at the receiver).
package cholesky

import "fmt"

// Task kinds, in id-segment order.
const (
	opPotrf = iota
	opTrsm
	opSyrk
	opGemm
)

// ids maps between task coordinates and dense integer ids:
//
//	POTRF(k)     for 0 ≤ k < NT
//	TRSM(m,k)    for 0 ≤ k < m < NT
//	SYRK(m,k)    for 0 ≤ k < m < NT
//	GEMM(m,n,k)  for 0 ≤ k < n < m < NT
//
// GEMM triples use the combinatorial number system, so every mapping is
// O(1) or O(log NT) with no stored tables — the PTG property that keeps
// Summit-scale graphs (10⁷ tasks) in O(1) memory per task.
type ids struct {
	nt       int
	pairs    int // NT(NT-1)/2
	triples  int // C(NT,3)
	trsmBase int
	syrkBase int
	gemmBase int
	numTasks int
	// Inversion tables: pyr[m] = m(m-1)/2 and tri[m] = C(m,3) for
	// m ∈ [0, nt]. Decoding an id binary-searches these instead of taking
	// float square/cube roots — decode runs three-plus times per task on
	// the phantom scale path, and nt+1 ints stay cache-resident.
	pyr []int
	tri []int
}

func newIDs(nt int) ids {
	pairs := nt * (nt - 1) / 2
	triples := nt * (nt - 1) * (nt - 2) / 6
	pyr := make([]int, nt+1)
	tri := make([]int, nt+1)
	for m := 0; m <= nt; m++ {
		pyr[m] = m * (m - 1) / 2
		tri[m] = c3(m)
	}
	return ids{
		nt:       nt,
		pairs:    pairs,
		triples:  triples,
		trsmBase: nt,
		syrkBase: nt + pairs,
		gemmBase: nt + 2*pairs,
		numTasks: nt + 2*pairs + triples,
		pyr:      pyr,
		tri:      tri,
	}
}

func pairIdx(m, k int) int { return m*(m-1)/2 + k }

// unpair inverts pairIdx: returns (m, k) with k < m, where m is the largest
// value with pyr[m] ≤ idx.
func (s *ids) unpair(idx int) (m, k int) {
	lo, hi := 1, s.nt
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if s.pyr[mid] <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, idx - s.pyr[lo]
}

func c3(m int) int { return m * (m - 1) * (m - 2) / 6 }

func tripleIdx(m, n, k int) int { return c3(m) + n*(n-1)/2 + k }

// untriple inverts tripleIdx: returns (m, n, k) with k < n < m.
func (s *ids) untriple(idx int) (m, n, k int) {
	lo, hi := 2, s.nt
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if s.tri[mid] <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	n, k = s.unpair(idx - s.tri[lo])
	return lo, n, k
}

func (s *ids) potrf(k int) int      { return k }
func (s *ids) trsm(m, k int) int    { return s.trsmBase + pairIdx(m, k) }
func (s *ids) syrk(m, k int) int    { return s.syrkBase + pairIdx(m, k) }
func (s *ids) gemm(m, n, k int) int { return s.gemmBase + tripleIdx(m, n, k) }

// decode returns the kind and coordinates of a task id. For POTRF only k is
// meaningful; for TRSM/SYRK, (m, k); for GEMM, (m, n, k).
func (s *ids) decode(id int) (op, m, n, k int) {
	switch {
	case id < s.trsmBase:
		return opPotrf, id, 0, id
	case id < s.syrkBase:
		m, k = s.unpair(id - s.trsmBase)
		return opTrsm, m, 0, k
	case id < s.gemmBase:
		m, k = s.unpair(id - s.syrkBase)
		return opSyrk, m, 0, k
	case id < s.numTasks:
		m, n, k = s.untriple(id - s.gemmBase)
		return opGemm, m, n, k
	}
	panic(fmt.Sprintf("cholesky: task id %d out of range [0,%d)", id, s.numTasks))
}
