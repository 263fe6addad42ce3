package linalg

import (
	"geompc/internal/fp16"
	"geompc/internal/prec"
)

// The NT GEMM family is built around register-blocked micro-kernels: the
// FP64 kernel of four A rows × two vectors of B columns at the host's vector
// width (dot64 / sub64), the 4×4 float32 kernel (dotNT4x4f32) and, where the
// processor converts binary16 in hardware, the 4×8 pure-FP16 kernel
// (dotNT4x8f16), with portable Go forms of all three. A block of independent
// accumulators covers a tile of C with the k-loop innermost, so each
// accumulator sums its products in exactly the order the naive triple loop
// would — the blocked kernels are bit-identical to the seed kernels for every
// input and at every width (pinned by the golden digest tests). B is repacked
// into interleaved column blocks (packB64 / interleaveF32) so one vector load
// pulls the operand for all lanes; lanes never mix elements of one
// accumulation.
//
// The pure-FP16 kernel rounds every product and partial sum to binary16:
// fp16.QuantF32 in Go (gemmNT16Panel), a VCVTPS2PH/VCVTPH2PS round trip on
// eight lanes with F16C (gemmNT16F16C) — the same rounding, subnormals
// included. CPUID decides at init (useF16C); no bit of a result that is not
// a NaN depends on it (a NaN's sign follows the add's operand order).

// Operand is a rows×k tile converted once for the NT GEMM kernels of one
// precision: quantized through the format's input representation, row-major
// for the A side and interleaved for the B side. A tile Cholesky builds one
// per (tile, format) on first use and hands it to every GEMM that reads the
// tile (GemmNTPacked); Release returns its buffers to the scratch pools.
// The zero value is an empty operand.
type Operand struct {
	p       prec.Precision
	rows, k int

	// FP64: the A side (and the B side of fewer than four remainder rows)
	// is the tile itself — no copy; bp is the B side in packB64 blocks.
	src []float64
	ld  int
	bp  []float64

	// Float32-accumulate formats: f32 is the input-quantized tile,
	// row-major with stride k (A side, remainder rows, and both sides of
	// the portable binary16 kernel); bq its B side, interleaved by four —
	// by eight for the F16C kernel, the only binary16 kernel that reads one.
	f32 []float32
	bq  []float32

	bpp       *[]float64
	f32p, bqp *[]float32
}

// Pack converts the rows×k matrix src (stride ld) for the kernels of
// precision p. The interleaved B side is built only when bSide is set; an
// operand without it may only be the A of a GEMM. An FP64 operand keeps
// reading src: the caller must not modify it before Release.
func (o *Operand) Pack(p prec.Precision, rows, k int, src []float64, ld int, bSide bool) {
	*o = Operand{p: p, rows: rows, k: k}
	if p == prec.FP64 {
		o.src, o.ld = src, ld
		if bSide {
			o.bp, o.bpp = packB64Scratch(src, rows, k, ld)
		}
		return
	}
	pk := pack32For[p]
	if pk == nil {
		panic("linalg: invalid precision " + p.String())
	}
	defer leaveFlush32(enterFlush32())
	o.f32, o.f32p = f32Scratch(rows * k)
	pk(o.f32, src, rows, k, ld)
	nb := 4
	if p == prec.FP16 {
		nb = 8
		bSide = bSide && useF16C
	}
	if bSide {
		o.bq, o.bqp = f32Scratch((rows + nb - 1) / nb * nb * k)
		interleaveF32(o.bq, o.f32, rows, k, nb)
	}
}

// Release returns the operand's buffers to the scratch pools and empties it.
func (o *Operand) Release() {
	if o.bpp != nil {
		putF64(o.bpp)
	}
	if o.f32p != nil {
		putF32(o.f32p)
	}
	if o.bqp != nil {
		putF32(o.bqp)
	}
	*o = Operand{}
}

// GemmNTPacked computes C = alpha*A*Bᵀ + beta*C in the precision a and b
// were packed for: a is m×k, b is n×k with its B side built, C is m×n
// (stride ldc). Every format's kernel is bit-identical to packing per call
// (GemmNTPrec).
func GemmNTPacked(alpha float64, a, b *Operand, beta float64, c []float64, ldc int) {
	m, n, k := a.rows, b.rows, a.k
	if a.p != b.p || b.k != k {
		panic("linalg: GemmNTPacked operands of different format or depth")
	}
	if m == 0 || n == 0 {
		return
	}
	if a.p == prec.FP64 {
		gemmNT64(m, n, k, alpha, a.src, a.ld, b.src, b.ld, b.bp, beta, c, ldc)
		return
	}
	defer leaveFlush32(enterFlush32())
	if a.p == prec.FP16 {
		alf, bef := fp16.QuantF32(float32(alpha)), fp16.QuantF32(float32(beta))
		i := 0
		if len(b.bq) > 0 {
			i = gemmNT16F16C(m, n, k, alf, beta == 0, bef, a.f32, b.bq, c, ldc)
		}
		gemmNT16Panel(i, m, n, k, alf, beta == 0, bef, a.f32, b.f32, c, ldc)
		return
	}
	gemmNT32Panel(0, m, n, k, float32(alpha), beta == 0, float32(beta), a.f32, b.f32, b.bq, c, ldc)
}

// GemmNTPrec computes C = alpha*A*Bᵀ + beta*C with the kernel for precision
// p: it packs both operands for this one call and runs GemmNTPacked.
// A is m×k (stride lda), B is n×k (stride ldb), C is m×n (stride ldc).
// Because B enters transposed, the inner loop is a dot product of two
// row-major rows, which is the cache-friendly orientation for the tile
// Cholesky update A[m][n] -= A[m][k]·A[n][k]ᵀ.
func GemmNTPrec(p prec.Precision, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	var ao, bo Operand
	ao.Pack(p, m, k, a, lda, false)
	// Fewer than four A rows never reach a micro-kernel: the remainder
	// rows read B row-major, so its interleaved form is not built.
	bo.Pack(p, n, k, b, ldb, m >= 4)
	GemmNTPacked(alpha, &ao, &bo, beta, c, ldc)
	ao.Release()
	bo.Release()
}

// GemmNT is GemmNTPrec in float64.
func GemmNT(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	GemmNTPrec(prec.FP64, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// gemmNT64 runs the FP64 micro-kernel over every whole group of four rows —
// bp is B in packB64 blocks, empty when there is no dot-product work (k = 0)
// or B was not packed — and the seed scalar loop over the remainder rows,
// which read b row-major.
func gemmNT64(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, bp []float64, beta float64, c []float64, ldc int) {
	i := 0
	if len(bp) > 0 {
		nb := vecWidth.nb()
		for ; i+4 <= m; i += 4 {
			ai, ci := a[i*lda:], c[i*ldc:]
			j := 0
			for ; j+nb <= n; j += nb {
				dot64(k, ai, lda, bp[j*k:], alpha, beta, ci[j:], ldc)
			}
			if j < n { // the last block's upper lanes are zero padding
				dotPartial64(k, ai, lda, bp[j*k:], alpha, beta, ci[j:], ldc, n-j, 0)
			}
		}
	}
	gemmNT64Tail(i, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// dotPartial64 is dot64 for a block that is not stored whole: row r keeps
// its first lim+r·step columns (at most nb). The kernel stages the bare
// sums in a stack block (alpha 1, beta 0: 1·s is exact) and the combine
// runs here, in Go.
func dotPartial64(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc, lim, step int) {
	var s [4 * maxNB]float64
	nb := vecWidth.nb()
	dot64(k, a, lda, bp, 1, 0, s[:], nb)
	for r := 0; r < 4; r++ {
		w := min(nb, lim+r*step)
		if w <= 0 {
			continue
		}
		cr, sr := c[r*ldc:][:w], s[r*nb:][:w]
		if beta == 0 { // BLAS: C is not read when beta == 0
			for jj, v := range sr {
				cr[jj] = alpha * v
			}
		} else {
			for jj, v := range sr {
				cr[jj] = alpha*v + beta*cr[jj]
			}
		}
	}
}

// subPartial64 is sub64 for a block that is not stored whole, with the
// column limits of dotPartial64: the kept entries are staged through a
// stack block whose other lanes are zero, and only they are written back.
func subPartial64(k int, a []float64, lda int, bp []float64, c []float64, ldc, lim, step int) {
	var t [4 * maxNB]float64
	nb := vecWidth.nb()
	for r := 0; r < 4; r++ {
		if w := min(nb, lim+r*step); w > 0 {
			copy(t[r*nb:], c[r*ldc:][:w])
		}
	}
	sub64(k, a, lda, bp, t[:], nb)
	for r := 0; r < 4; r++ {
		if w := min(nb, lim+r*step); w > 0 {
			copy(c[r*ldc:][:w], t[r*nb:])
		}
	}
}

// gemmNT64Tail is the seed scalar loop over rows [i0,i1) — the remainder
// rows of a panel (fewer than four) read B directly in row-major form.
func gemmNT64Tail(i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := i0; i < i1; i++ {
		ai := a[i*lda:][:k]
		ci := c[i*ldc:][:n]
		for j := range ci {
			bj := b[j*ldb:][:k]
			var s float64
			for l := 0; l < k; l++ {
				s += ai[l] * bj[l]
			}
			if beta == 0 { // BLAS: C is not read when beta == 0
				ci[j] = alpha * s
			} else {
				ci[j] = alpha*s + beta*ci[j]
			}
		}
	}
}

// packB64 packs the n×k row-major matrix (stride ld) into column blocks of
// nb: dst[jb·nb·k + l·nb + jj] = src[(jb·nb+jj)·ld + l], the B operand of
// dot64 / sub64. Rows past n in the last block are zero padding (their
// lanes are computed and discarded — zero products never perturb the other
// lanes because packed operations are per-lane).
func packB64(dst, src []float64, n, k, ld, nb int) {
	for j0 := 0; j0 < n; j0 += nb {
		out := dst[j0*k:][:nb*k]
		for jj := 0; jj < nb; jj++ {
			if j0+jj < n {
				for l, v := range src[(j0+jj)*ld:][:k] {
					out[l*nb+jj] = v
				}
			} else {
				for l := 0; l < k; l++ {
					out[l*nb+jj] = 0
				}
			}
		}
	}
}

// packB64Scratch packs src at the active width into a pooled buffer.
func packB64Scratch(src []float64, n, k, ld int) ([]float64, *[]float64) {
	nb := vecWidth.nb()
	bp, bpp := f64Scratch((n + nb - 1) / nb * nb * k)
	packB64(bp, src, n, k, ld, nb)
	return bp, bpp
}

// gemmNT32Panel is the shared float32-accumulation micro-kernel body for
// rows [i0,i1): af and bf hold the packed (and, for the emulated formats,
// input-quantized) operands with row stride k. The beta == 0 test is against
// the caller's float64 beta, matching the seed kernels exactly (a beta that
// underflows to zero only in float32 must still take the read-C path).
func gemmNT32Panel(i0, i1, n, k int, al float32, betaZero bool, be float32, af, bf, bq []float32, c []float64, ldc int) {
	var s [16]float32
	i := i0
	for ; i+4 <= i1; i += 4 {
		ai0 := af[(i+0)*k:][:k]
		ai1 := af[(i+1)*k:][:k]
		ai2 := af[(i+2)*k:][:k]
		ai3 := af[(i+3)*k:][:k]
		ci0 := c[(i+0)*ldc:][:n]
		ci1 := c[(i+1)*ldc:][:n]
		ci2 := c[(i+2)*ldc:][:n]
		ci3 := c[(i+3)*ldc:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			dotNT4x4f32(k, ai0, ai1, ai2, ai3, bq[j*k:], &s)
			if betaZero {
				ci0[j+0], ci0[j+1] = float64(al*s[0]), float64(al*s[1])
				ci0[j+2], ci0[j+3] = float64(al*s[2]), float64(al*s[3])
				ci1[j+0], ci1[j+1] = float64(al*s[4]), float64(al*s[5])
				ci1[j+2], ci1[j+3] = float64(al*s[6]), float64(al*s[7])
				ci2[j+0], ci2[j+1] = float64(al*s[8]), float64(al*s[9])
				ci2[j+2], ci2[j+3] = float64(al*s[10]), float64(al*s[11])
				ci3[j+0], ci3[j+1] = float64(al*s[12]), float64(al*s[13])
				ci3[j+2], ci3[j+3] = float64(al*s[14]), float64(al*s[15])
			} else {
				for jj := 0; jj < 4; jj++ {
					ci0[j+jj] = float64(al*s[jj] + be*float32(ci0[j+jj]))
					ci1[j+jj] = float64(al*s[4+jj] + be*float32(ci1[j+jj]))
					ci2[j+jj] = float64(al*s[8+jj] + be*float32(ci2[j+jj]))
					ci3[j+jj] = float64(al*s[12+jj] + be*float32(ci3[j+jj]))
				}
			}
		}
		if j < n { // n % 4 remainder: the quad block's upper lanes are padding
			dotNT4x4f32(k, ai0, ai1, ai2, ai3, bq[j*k:], &s)
			for jj := 0; j+jj < n; jj++ {
				if betaZero {
					ci0[j+jj] = float64(al * s[jj])
					ci1[j+jj] = float64(al * s[4+jj])
					ci2[j+jj] = float64(al * s[8+jj])
					ci3[j+jj] = float64(al * s[12+jj])
				} else {
					ci0[j+jj] = float64(al*s[jj] + be*float32(ci0[j+jj]))
					ci1[j+jj] = float64(al*s[4+jj] + be*float32(ci1[j+jj]))
					ci2[j+jj] = float64(al*s[8+jj] + be*float32(ci2[j+jj]))
					ci3[j+jj] = float64(al*s[12+jj] + be*float32(ci3[j+jj]))
				}
			}
		}
	}
	for ; i < i1; i++ {
		ai := af[i*k:][:k]
		ci := c[i*ldc:][:n]
		if betaZero {
			for j := 0; j < n; j++ {
				bj := bf[j*k:][:k]
				var s float32
				for l := 0; l < k; l++ {
					s += ai[l] * bj[l]
				}
				ci[j] = float64(al * s)
			}
		} else {
			for j := 0; j < n; j++ {
				bj := bf[j*k:][:k]
				var s float32
				for l := 0; l < k; l++ {
					s += ai[l] * bj[l]
				}
				ci[j] = float64(al*s + be*float32(ci[j]))
			}
		}
	}
}

// interleaveF32 packs the already-quantized row-major n×k matrix (stride k)
// into column blocks of nb: dst[jb·nb·k + nb·l + jj] = src[(nb·jb+jj)·k + l],
// the operand layout of dotNT4x4f32 (nb = 4) and dotNT4x8f16 (nb = 8). Rows
// past n are zero padding; their lanes are computed and discarded at the
// store.
func interleaveF32(dst, src []float32, n, k, nb int) {
	for j0 := 0; j0 < n; j0 += nb {
		out := dst[j0*k:][:nb*k]
		for jj := 0; jj < nb; jj++ {
			if j0+jj < n {
				row := src[(j0+jj)*k:][:k]
				for l := 0; l < k; l++ {
					out[nb*l+jj] = row[l]
				}
			} else {
				for l := 0; l < k; l++ {
					out[nb*l+jj] = 0
				}
			}
		}
	}
}

// gemmNT16F16C runs the whole groups of four rows of the pure-FP16 GEMM
// through the F16C micro-kernel (b8 is B interleaved by eight), combines the
// sums as the Go kernel does, and returns the first row it left for it.
func gemmNT16F16C(m, n, k int, alf float32, betaZero bool, bef float32, af, b8 []float32, c []float64, ldc int) int {
	var s [32]float32
	i := 0
	for ; i+4 <= m; i += 4 {
		ai := af[i*k:][:4*k]
		for j := 0; j < n; j += 8 {
			dotNT4x8f16(k, ai, b8[j*k:][:8*k], &s)
			w := min(8, n-j)
			for r := 0; r < 4; r++ {
				cr := c[(i+r)*ldc+j:][:w]
				for jj := range cr {
					cr[jj] = fp16Store(alf, s[8*r+jj], betaZero, bef, cr[jj])
				}
			}
		}
	}
	return i
}

// gemmNT16Panel is the pure-FP16 GEMM over rows [i0,i1) in portable Go: the
// only form off amd64 and without F16C, the remainder rows everywhere, and
// the reference the F16C kernel is tested against. A, B and C are binary16
// and the accumulator is rounded to binary16 after every fused
// multiply-add, matching FP16-accumulate tensor-core mode: every binary16
// value is held as its exact float32 image and fp16.QuantF32
// (round-to-nearest-even at binary16 precision) is applied after each
// multiply and each add — proven bit-equivalent to the Half-typed
// AddHalf/MulHalf chain by the exhaustive fp16 tests, and pinned against the
// seed kernel by the golden digests.
func gemmNT16Panel(i0, i1, n, k int, alf float32, betaZero bool, bef float32, af, bf []float32, c []float64, ldc int) {
	i := i0
	for ; i+4 <= i1; i += 4 {
		ai0 := af[(i+0)*k:][:k]
		ai1 := af[(i+1)*k:][:k]
		ai2 := af[(i+2)*k:][:k]
		ai3 := af[(i+3)*k:][:k]
		ci0 := c[(i+0)*ldc:][:n]
		ci1 := c[(i+1)*ldc:][:n]
		ci2 := c[(i+2)*ldc:][:n]
		ci3 := c[(i+3)*ldc:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			bj0 := bf[(j+0)*k:][:k]
			bj1 := bf[(j+1)*k:][:k]
			bj2 := bf[(j+2)*k:][:k]
			bj3 := bf[(j+3)*k:][:k]
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			var s20, s21, s22, s23 float32
			var s30, s31, s32, s33 float32
			for l := 0; l < k; l++ {
				a0, a1, a2, a3 := ai0[l], ai1[l], ai2[l], ai3[l]
				b0, b1, b2, b3 := bj0[l], bj1[l], bj2[l], bj3[l]
				s00 = fp16.QuantF32(s00 + fp16.QuantF32(a0*b0))
				s01 = fp16.QuantF32(s01 + fp16.QuantF32(a0*b1))
				s02 = fp16.QuantF32(s02 + fp16.QuantF32(a0*b2))
				s03 = fp16.QuantF32(s03 + fp16.QuantF32(a0*b3))
				s10 = fp16.QuantF32(s10 + fp16.QuantF32(a1*b0))
				s11 = fp16.QuantF32(s11 + fp16.QuantF32(a1*b1))
				s12 = fp16.QuantF32(s12 + fp16.QuantF32(a1*b2))
				s13 = fp16.QuantF32(s13 + fp16.QuantF32(a1*b3))
				s20 = fp16.QuantF32(s20 + fp16.QuantF32(a2*b0))
				s21 = fp16.QuantF32(s21 + fp16.QuantF32(a2*b1))
				s22 = fp16.QuantF32(s22 + fp16.QuantF32(a2*b2))
				s23 = fp16.QuantF32(s23 + fp16.QuantF32(a2*b3))
				s30 = fp16.QuantF32(s30 + fp16.QuantF32(a3*b0))
				s31 = fp16.QuantF32(s31 + fp16.QuantF32(a3*b1))
				s32 = fp16.QuantF32(s32 + fp16.QuantF32(a3*b2))
				s33 = fp16.QuantF32(s33 + fp16.QuantF32(a3*b3))
			}
			ci0[j+0] = fp16Store(alf, s00, betaZero, bef, ci0[j+0])
			ci0[j+1] = fp16Store(alf, s01, betaZero, bef, ci0[j+1])
			ci0[j+2] = fp16Store(alf, s02, betaZero, bef, ci0[j+2])
			ci0[j+3] = fp16Store(alf, s03, betaZero, bef, ci0[j+3])
			ci1[j+0] = fp16Store(alf, s10, betaZero, bef, ci1[j+0])
			ci1[j+1] = fp16Store(alf, s11, betaZero, bef, ci1[j+1])
			ci1[j+2] = fp16Store(alf, s12, betaZero, bef, ci1[j+2])
			ci1[j+3] = fp16Store(alf, s13, betaZero, bef, ci1[j+3])
			ci2[j+0] = fp16Store(alf, s20, betaZero, bef, ci2[j+0])
			ci2[j+1] = fp16Store(alf, s21, betaZero, bef, ci2[j+1])
			ci2[j+2] = fp16Store(alf, s22, betaZero, bef, ci2[j+2])
			ci2[j+3] = fp16Store(alf, s23, betaZero, bef, ci2[j+3])
			ci3[j+0] = fp16Store(alf, s30, betaZero, bef, ci3[j+0])
			ci3[j+1] = fp16Store(alf, s31, betaZero, bef, ci3[j+1])
			ci3[j+2] = fp16Store(alf, s32, betaZero, bef, ci3[j+2])
			ci3[j+3] = fp16Store(alf, s33, betaZero, bef, ci3[j+3])
		}
		for ; j < n; j++ {
			bj := bf[j*k:][:k]
			var s0, s1, s2, s3 float32
			for l := 0; l < k; l++ {
				bl := bj[l]
				s0 = fp16.QuantF32(s0 + fp16.QuantF32(ai0[l]*bl))
				s1 = fp16.QuantF32(s1 + fp16.QuantF32(ai1[l]*bl))
				s2 = fp16.QuantF32(s2 + fp16.QuantF32(ai2[l]*bl))
				s3 = fp16.QuantF32(s3 + fp16.QuantF32(ai3[l]*bl))
			}
			ci0[j] = fp16Store(alf, s0, betaZero, bef, ci0[j])
			ci1[j] = fp16Store(alf, s1, betaZero, bef, ci1[j])
			ci2[j] = fp16Store(alf, s2, betaZero, bef, ci2[j])
			ci3[j] = fp16Store(alf, s3, betaZero, bef, ci3[j])
		}
	}
	for ; i < i1; i++ {
		ai := af[i*k:][:k]
		ci := c[i*ldc:][:n]
		for j := 0; j < n; j++ {
			bj := bf[j*k:][:k]
			var s float32
			for l := 0; l < k; l++ {
				s = fp16.QuantF32(s + fp16.QuantF32(ai[l]*bj[l]))
			}
			ci[j] = fp16Store(alf, s, betaZero, bef, ci[j])
		}
	}
}

// fp16Store applies the binary16 alpha/beta combine: t = alpha⊗s and, when
// beta is nonzero, t ⊕ beta⊗fl16(cij) — each ⊗/⊕ a float32 op rounded to
// binary16, matching the seed kernel's MulHalf/AddHalf chain bit-for-bit.
func fp16Store(alf, s float32, betaZero bool, bef float32, cij float64) float64 {
	t := fp16.QuantF32(alf * s)
	if betaZero {
		return float64(t)
	}
	u := fp16.QuantF32(bef * fp16.QuantF32(float32(cij)))
	return float64(fp16.QuantF32(t + u))
}

// The pack loops below are specialized per format — the seed's
// rq func(float32) float32 closure cost an indirect call per element;
// each loop body here inlines its quantizer. pack32For is the loop of each
// float32-accumulate kernel precision.
var pack32For = [prec.Count]func(dst []float32, src []float64, rows, cols, ld int){
	prec.FP32: pack32, prec.TF32: packTF32, prec.BF16x32: packBF16, prec.FP16x32: packFP16, prec.FP16: packFP16,
}

func pack32(dst []float32, src []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		row := src[i*ld:][:cols]
		out := dst[i*cols:][:cols]
		for j, v := range row {
			out[j] = float32(v)
		}
	}
}

// packTF32 quantizes to TF32 (11-bit significand, float32 exponent range).
func packTF32(dst []float32, src []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		row := src[i*ld:][:cols]
		out := dst[i*cols:][:cols]
		for j, v := range row {
			out[j] = fp16.TF32Round(float32(v))
		}
	}
}

// packBF16 quantizes to bfloat16 (8-bit significand).
func packBF16(dst []float32, src []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		row := src[i*ld:][:cols]
		out := dst[i*cols:][:cols]
		for j, v := range row {
			out[j] = fp16.BF16Round(float32(v))
		}
	}
}

// packFP16 quantizes to binary16, held as exact float32 values.
func packFP16(dst []float32, src []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		row := src[i*ld:][:cols]
		out := dst[i*cols:][:cols]
		for j, v := range row {
			out[j] = fp16.QuantF32(float32(v))
		}
	}
}
