package linalg

import (
	"geompc/internal/fp16"
	"geompc/internal/prec"
)

// Every NT GEMM and the SYRK run one block loop (gemmNT) over the one
// micro-kernel shape of doc.go — dot64, dot32, or dot16 for pure FP16 — each
// with a portable Go form. Each accumulator sums its products in the naive
// triple loop's order, bit-identical to the seed kernels for every input and
// at every width (pinned by the golden digests). B is repacked into
// interleaved column blocks (packLanes) so one vector load pulls the operand
// for all lanes; the A side is padded to whole groups of four rows, so a tile
// of any shape runs in the kernel only. The conversions into a format
// (convert) and the binary32 and binary16 combines with C (combine) run in
// vector lanes too.
//
// The binary16 round trip is fp16.QuantF32, subnormals included; CPUID
// decides at init (useF16C), and no bit of a result that is not a NaN
// depends on it (a NaN's sign follows the add's operand order).

// Operand is a rows×k tile converted once for the NT GEMM kernels of one
// precision: quantized through the format's input representation, row-major
// for the A side and interleaved for the B side. A tile Cholesky builds one
// per (tile, format) on first use and hands it to every GEMM that reads the
// tile (GemmNTPacked); Release returns its buffers to the scratch pools.
// The zero value is an empty operand.
type Operand struct {
	p       prec.Precision
	rows, k int
	f64     side[float64] // FP64: the A side is the tile itself, not copied
	f32     side[float32] // every other format: the input-quantized tile
}

// side is an operand in the element type its kernel reads: the A side a
// (stride ld) with its last rows mod 4 rows copied to tail, zero-padded to
// a whole group of four (stride k), and the B side bp in packLanes blocks of
// nb columns.
type side[T float32 | float64] struct {
	a, tail, bp    []T
	ld, nb         int
	ap, tailp, bpp *[]T // the scratch buffers it owns
}

func (s *side[T]) pack(a []T, rows, k, ld, nb int, bSide bool) {
	*s = side[T]{a: a, ld: ld, nb: nb}
	if r := rows % 4; r > 0 {
		s.tail, s.tailp = getScratch[T](4 * k)
		clear(s.tail[r*k:])
		for i := 0; i < r; i++ {
			copy(s.tail[i*k:][:k], a[(rows-r+i)*ld:])
		}
	}
	if bSide {
		s.bp, s.bpp = getScratch[T]((rows + nb - 1) / nb * nb * k)
		packLanes(s.bp, a, rows, k, ld, nb)
	}
}

// group returns the A side of the four rows from row i and its stride.
func (s *side[T]) group(i, rows, k int) ([]T, int) {
	if i+4 > rows {
		return s.tail, k
	}
	return s.a[i*s.ld:], s.ld
}

func (s *side[T]) release() {
	for _, p := range []*[]T{s.ap, s.tailp, s.bpp} {
		if p != nil {
			putScratch(p)
		}
	}
}

// Pack converts the rows×k matrix src (stride ld) for the kernels of
// precision p. The interleaved B side is built only when bSide is set; an
// operand without it may only be the A of a GEMM. An FP64 operand keeps
// reading src: the caller must not modify it before Release.
func (o *Operand) Pack(p prec.Precision, rows, k int, src []float64, ld int, bSide bool) {
	*o = Operand{p: p, rows: rows, k: k}
	if p == prec.FP64 {
		o.f64.pack(src, rows, k, ld, nbOf[float64](), bSide)
		return
	}
	defer leaveFlush32(enterFlush32())
	q, qp := getScratch[float32](rows * k)
	convert(rows, k, src, ld, q, k, p == prec.FP16x32 || p == prec.FP16)
	switch p { // TF32 and BF16 round the binary32 values on
	case prec.TF32:
		for i, v := range q {
			q[i] = fp16.TF32Round(v)
		}
	case prec.BF16x32:
		for i, v := range q {
			q[i] = fp16.BF16Round(v)
		}
	case prec.FP32, prec.FP16x32, prec.FP16:
	default:
		panic("linalg: invalid precision " + p.String())
	}
	o.f32.pack(q, rows, k, k, nbOf[float32](), bSide)
	o.f32.ap = qp
}

// Quantize rounds x through precision p's input representation in place
// and returns x: prec.Quantize, with the binary32 and binary16 roundings in
// vector lanes (convert). It obeys the caller's MXCSR, as prec.Quantize's
// float32(v) does.
func Quantize(x []float64, p prec.Precision) []float64 {
	if p != prec.FP32 && p != prec.FP16x32 && p != prec.FP16 {
		return prec.Quantize(x, p)
	}
	convert(1, len(x), x, len(x), x, len(x), p != prec.FP32)
	return x
}

// Release returns the operand's buffers to the scratch pools and empties it.
func (o *Operand) Release() {
	o.f64.release()
	o.f32.release()
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
	if a.p == prec.FP64 {
		gemmNT(a.p, m, n, k, &a.f64, &b.f64, false, alpha, beta, c, ldc)
		return
	}
	defer leaveFlush32(enterFlush32())
	gemmNT(a.p, m, n, k, &a.f32, &b.f32, false, alpha, beta, c, ldc)
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
	bo.Pack(p, n, k, b, ldb, true)
	GemmNTPacked(alpha, &ao, &bo, beta, c, ldc)
	ao.Release()
	bo.Release()
}

// gemmNT is the NT GEMM block loop of every format p, on its operands' sides
// (T float64 for FP64, float32 for the others): C = alpha·A·Bᵀ + beta·C
// over blocks of a's groups of four rows × b's packed blocks of nb
// columns. Row i of C keeps its first n columns, or — tri, the SYRK — its
// columns j ≤ i. An FP64 block whose elements are all kept goes through
// dot64 straight into C; every other block's bare sums go to a stack block,
// and store combines its kept rows and columns into C.
func gemmNT[T float32 | float64](p prec.Precision, m, n, k int, a, b *side[T], tri bool, alpha, beta float64, c []float64, ldc int) {
	var s [4 * maxNB]T
	nb := b.nb
	al, be := float32(alpha), float32(beta) // the float32 combine's
	if p == prec.FP16 {
		al, be = fp16.QuantF32(al), fp16.QuantF32(be)
	}
	for i := 0; i < m; i += 4 {
		ai, lda := a.group(i, m, k)
		rows, jn := min(4, m-i), n
		if tri {
			jn = i + rows
		}
		for j := 0; j < jn; j += nb {
			lim, step := n-j, 0 // row i+r keeps lim + r·step columns of the block
			if tri {
				lim, step = i-j+1, 1
			}
			if is64[T]() && rows == 4 && lim >= nb {
				dot64(k, as[float64](ai), lda, as[float64](b.bp[j*k:]), alpha, beta, c[i*ldc+j:], ldc)
				continue
			}
			sums(p, k, ai, lda, b.bp[j*k:], s[:4*nb])
			store(p, alpha, beta, al, be, c[i*ldc+j:], ldc, s[:4*nb], rows, lim, step)
		}
	}
}

// sums writes the bare sums of four rows of a (stride lda) against one
// packed block bp into s (4×nb, stride nb) in format p's arithmetic: dot64
// at alpha 1, beta 0 (1·s is exact), dot32, or the binary16 kernel.
func sums[T float32 | float64](p prec.Precision, k int, a []T, lda int, bp, s []T) {
	switch {
	case is64[T]():
		dot64(k, as[float64](a), lda, as[float64](bp), 1, 0, as[float64](s), len(s)/4)
	case p == prec.FP16:
		dot16(k, as[float32](a), lda, as[float32](bp), as[float32](s))
	default:
		dot32(k, as[float32](a), lda, as[float32](bp), as[float32](s), len(s)/4)
	}
}

// store combines the bare sums s of a block (4×nb) into C at c (stride
// ldc), c = alpha·s + beta·c in format p's arithmetic — al and be are alpha
// and beta in binary32, or binary16 for FP16 — for its first rows rows,
// row r its first lim + r·step columns. C is not read when beta == 0
// (BLAS); the test is against the caller's float64 beta, as in the seed
// kernels: a beta that underflows to zero only in float32 must still take
// the read-C path.
func store[T float32 | float64](p prec.Precision, alpha, beta float64, al, be float32, c []float64, ldc int, s []T, rows, lim, step int) {
	nb := len(s) / 4
	for r := 0; r < rows; r++ {
		w := min(nb, lim+r*step)
		if w <= 0 {
			continue
		}
		cr := c[r*ldc:][:w]
		if is64[T]() {
			sr := as[float64](s[r*nb:][:w])
			if beta == 0 {
				for jj, v := range sr {
					cr[jj] = alpha * v
				}
			} else {
				for jj, v := range sr {
					cr[jj] = alpha*v + beta*cr[jj]
				}
			}
			continue
		}
		combine(cr, as[float32](s[r*nb:][:w]), al, be, beta != 0, p == prec.FP16)
	}
}

// packLanes packs the n×k row-major matrix (stride ld) into blocks of nb
// rows, a row per vector lane: dst[jb·nb·k + l·nb + jj] = src[(jb·nb+jj)·ld
// + l] — the B operand of the GEMM micro-kernels and the lane kernel's
// layout, converted to D on the way. Rows past n are zero padding: their
// lanes are computed and discarded, and packed operations never mix lanes.
func packLanes[S, D float32 | float64](dst []D, src []S, n, k, ld, nb int) {
	for j0 := 0; j0 < n; j0 += nb {
		out := dst[j0*k:][:nb*k]
		if n-j0 < nb {
			clear(out)
		}
		transpose(min(nb, n-j0), k, src[j0*ld:], ld, out, nb)
	}
}

// unpackLanes is the inverse of packLanes: it stores the n rows held in
// src's blocks of nb lanes into the n×k row-major dst (stride ld).
func unpackLanes[S, D float32 | float64](dst []D, src []S, n, k, ld, nb int) {
	for j0 := 0; j0 < n; j0 += nb {
		transpose(k, min(nb, n-j0), src[j0*k:], nb, dst[j0*ld:], ld)
	}
}

// dot16Go is dot16 in portable Go: the only form off amd64 and without
// F16C, and the reference the F16C kernels are tested against.
// fp16.QuantF32 (round-to-nearest-even at binary16 precision) is applied
// after each multiply and each add — proven bit-equivalent to the
// Half-typed AddHalf/MulHalf chain by the exhaustive fp16 tests, and pinned
// against the seed kernel by the golden digests.
func dot16Go(k int, a []float32, lda int, bp, s []float32) {
	q, nb := fp16.QuantF32, len(s)/4
	for i := 0; i < 4*nb; i += 8 { // eight columns of row i/nb at a time
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for l, x := range a[i/nb*lda:][:k] {
			b := bp[l*nb+i%nb:][:8]
			s0, s1 = q(s0+q(x*b[0])), q(s1+q(x*b[1]))
			s2, s3 = q(s2+q(x*b[2])), q(s3+q(x*b[3]))
			s4, s5 = q(s4+q(x*b[4])), q(s5+q(x*b[5]))
			s6, s7 = q(s6+q(x*b[6])), q(s7+q(x*b[7]))
		}
		sr := s[i:][:8]
		sr[0], sr[1], sr[2], sr[3], sr[4], sr[5], sr[6], sr[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}
