// Package cholesky implements the adaptive mixed-precision tile Cholesky
// factorization of Algorithm 1 as a parameterized task graph over the
// runtime engine: POTRF, TRSM, SYRK and GEMM task classes with algebraic
// dependencies, per-tile kernel precisions from the precision map, and the
// automated conversion strategy of Algorithm 2 deciding the wire format of
// every communication (STC at the sender or TTC at the receiver).
package cholesky

import (
	"fmt"

	"geompc/internal/hw"
)

// ids maps between task coordinates and dense integer ids:
//
//	POTRF(k)     for 0 ≤ k < NT
//	TRSM(m,k)    for 0 ≤ k < m < NT
//	SYRK(m,k)    for 0 ≤ k < m < NT
//	GEMM(m,n,k)  for 0 ≤ k < n < m < NT
//
// GEMM triples use the combinatorial number system, so encoding is O(1)
// arithmetic. Decoding reads a flat table of one packed word per task
// (4 bytes; 4.8 MB at NT 192), filled once by enumerating the encoders:
// the engine decodes every task three times (in-degree, spec, successors).
type ids struct {
	nt       int
	trsmBase int
	syrkBase int
	gemmBase int
	numTasks int
	// task[id] is task id's kind and coordinates, packed as
	// op<<30 | m<<20 | n<<10 | k (see pack).
	task []uint32
}

// maxNT is the largest tile count the packed task table can address:
// coordinates take 10 bits each.
const maxNT = 1 << 10

func newIDs(nt int) ids {
	pairs := nt * (nt - 1) / 2
	s := ids{
		nt:       nt,
		trsmBase: nt,
		syrkBase: nt + pairs,
		gemmBase: nt + 2*pairs,
		numTasks: nt + 2*pairs + c3(nt),
	}
	s.task = make([]uint32, s.numTasks)
	for k := 0; k < nt; k++ {
		s.task[s.potrf(k)] = pack(hw.KindPotrf, k, 0, k)
	}
	for m := 1; m < nt; m++ {
		for k := 0; k < m; k++ {
			s.task[s.trsm(m, k)] = pack(hw.KindTrsm, m, 0, k)
			s.task[s.syrk(m, k)] = pack(hw.KindSyrk, m, 0, k)
		}
	}
	for m := 2; m < nt; m++ {
		for n := 1; n < m; n++ {
			for k := 0; k < n; k++ {
				s.task[s.gemm(m, n, k)] = pack(hw.KindGemm, m, n, k)
			}
		}
	}
	return s
}

func pack(op hw.KernelKind, m, n, k int) uint32 { return uint32(int(op)<<30 | m<<20 | n<<10 | k) }

func pairIdx(m, k int) int { return m*(m-1)/2 + k }

func c3(m int) int { return m * (m - 1) * (m - 2) / 6 }

func tripleIdx(m, n, k int) int { return c3(m) + n*(n-1)/2 + k }

func (s *ids) potrf(k int) int      { return k }
func (s *ids) trsm(m, k int) int    { return s.trsmBase + pairIdx(m, k) }
func (s *ids) syrk(m, k int) int    { return s.syrkBase + pairIdx(m, k) }
func (s *ids) gemm(m, n, k int) int { return s.gemmBase + tripleIdx(m, n, k) }

// decode returns the kind and coordinates of a task id. For POTRF only k is
// meaningful (m = k); for TRSM/SYRK, (m, k); for GEMM, (m, n, k).
func (s *ids) decode(id int) (op hw.KernelKind, m, n, k int) {
	if uint(id) >= uint(len(s.task)) {
		panic(fmt.Sprintf("cholesky: task id %d out of range [0,%d)", id, s.numTasks))
	}
	w := s.task[id]
	return hw.KernelKind(w >> 30), int(w >> 20 & 1023), int(w >> 10 & 1023), int(w & 1023)
}
