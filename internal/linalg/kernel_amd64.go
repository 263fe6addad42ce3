//go:build amd64

package linalg

import "runtime"

// SSE2 micro-kernel dot products. Each XMM lane holds ONE output element's
// accumulator, so every element still sums its products in strictly
// increasing l order with one rounding per add — packed MULPD/ADDPD are
// per-lane IEEE-754 ops identical to their scalar forms, which makes the
// SIMD kernels bit-identical to the seed triple loops (pinned by the golden
// digests). SSE2 is part of the amd64 v1 baseline, so no feature detection
// is needed. FMA is deliberately not used: it would skip the intermediate
// rounding and change results.

// dotNT4x2f64 computes s[i*2+jj] = Σ_l ai[l]·b(jj)[l] for four A rows
// against one pair-interleaved B block (bp[2l+jj] = b(jj)[l]). k > 0.
//
//go:noescape
func dotNT4x2f64(k int, a0, a1, a2, a3, bp []float64, s *[8]float64)

// dotNT4x4f64 computes a 4×4 block against two pair-interleaved B blocks
// (columns j..j+1 in bp0, j+2..j+3 in bp1): s[i*4+jj] = Σ_l ai[l]·b(jj)[l].
// Each A element is broadcast once and feeds four columns, halving the
// per-flop load traffic of dotNT4x2f64. Eight XMM accumulators + two B
// registers + two broadcast temps fit the sixteen-register file (a blocking
// the Go compiler cannot reach without spilling, hence assembly). k > 0.
//
//go:noescape
func dotNT4x4f64(k int, a0, a1, a2, a3, bp0, bp1 []float64, s *[16]float64)

// dotNT4x4f32 computes s[i*4+jj] = Σ_l ai[l]·b(jj)[l] for four A rows
// against one quad-interleaved B block (bq[4l+jj] = b(jj)[l]). k > 0.
//
//go:noescape
func dotNT4x4f32(k int, a0, a1, a2, a3, bq []float32, s *[16]float32)

// The binary32 underflow contract (doc.go) on amd64: MXCSR flush-to-zero
// (bit 15) and denormals-are-zero (bit 6) govern every SSE instruction, so
// one scoped region covers the micro-kernels above and the compiler's
// scalar MULSS/ADDSS/DIVSS/CVTSD2SS in the pure-Go panels alike. DAZ is
// implemented by every amd64 processor.
const mxcsrFlush = 1<<15 | 1<<6

func getMXCSR() uint32

func setMXCSR(v uint32)

// enterFlush32 switches the calling thread to flush-to-zero arithmetic and
// returns the MXCSR to hand back to leaveFlush32. MXCSR is per OS thread
// and the Go scheduler neither saves nor restores it, so the goroutine is
// wired to its thread first: a preempted kernel resumes on the same thread
// and no other goroutine can run on it — and inherit the mode — meanwhile.
// Use as `defer leaveFlush32(enterFlush32())`, which also restores the mode
// when a kernel panics.
func enterFlush32() uint32 {
	runtime.LockOSThread()
	old := getMXCSR()
	setMXCSR(old | mxcsrFlush)
	return old
}

func leaveFlush32(old uint32) {
	setMXCSR(old)
	runtime.UnlockOSThread()
}
