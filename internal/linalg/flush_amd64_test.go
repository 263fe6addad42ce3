package linalg

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geompc/internal/fp16"
	"geompc/internal/prec"
)

// Tests of the binary32 underflow contract (doc.go) and of the scoped MXCSR
// region that enforces it on amd64: what the kernels compute, that the mode
// never outlives a kernel call or reaches another goroutine, and that the
// denormal-assist stall is gone.

// flushRef is a scalar binary32 machine with the contract applied by hand
// under default MXCSR: every operation is computed in float64 — exact for a
// product, and innocuous double rounding for a sum, difference or quotient of
// two binary32 values — and rounded once to binary32, with tiny results
// replaced by a signed zero. Like SSE, it detects tininess after rounding
// with an unbounded exponent, so exactly the values below 2⁻¹²⁶ − 2⁻¹⁵¹
// flush. It never produces a subnormal, so operands need no second check.
type flushRef struct{ flushed int }

func (r *flushRef) rnd(v float64) float32 {
	if v != 0 && math.Abs(v) < 0x1p-126-0x1p-151 {
		r.flushed++
		return float32(math.Copysign(0, v))
	}
	return float32(v)
}

func (r *flushRef) mul(a, b float32) float32 { return r.rnd(float64(a) * float64(b)) }
func (r *flushRef) add(a, b float32) float32 { return r.rnd(float64(a) + float64(b)) }
func (r *flushRef) sub(a, b float32) float32 { return r.rnd(float64(a) - float64(b)) }
func (r *flushRef) div(a, b float32) float32 { return r.rnd(float64(a) / float64(b)) }

// pack converts with the format's input quantizer, as the kernels' pack
// loops do inside the region.
func (r *flushRef) pack(src []float64, quant func(float32) float32) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = r.rnd(v)
		if quant != nil {
			out[i] = quant(out[i])
		}
	}
	return out
}

// store is the alpha/beta combine of the float32 GEMM kernels.
func (r *flushRef) store(al, s float32, beta float64, cij float64) float64 {
	if beta == 0 {
		return float64(r.mul(al, s))
	}
	return float64(r.add(r.mul(al, s), r.mul(r.rnd(beta), r.rnd(cij))))
}

func (r *flushRef) gemm(m, n, k int, alpha float64, a, b []float64, beta float64, c []float64, quant func(float32) float32) {
	af, bf, al := r.pack(a, quant), r.pack(b, quant), r.rnd(alpha)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s = r.add(s, r.mul(af[i*k+l], bf[j*k+l]))
			}
			c[i*n+j] = r.store(al, s, beta, c[i*n+j])
		}
	}
}

// gemmFP16 is the binary16 chain: every product and sum is rounded to
// binary16 after its binary32 operation.
func (r *flushRef) gemmFP16(m, n, k int, alpha float64, a, b []float64, beta float64, c []float64) {
	q := fp16.QuantF32
	af, bf := r.pack(a, q), r.pack(b, q)
	alf, bef := q(r.rnd(alpha)), q(r.rnd(beta))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s = q(r.add(s, q(r.mul(af[i*k+l], bf[j*k+l]))))
			}
			t := q(r.mul(alf, s))
			if beta != 0 {
				t = q(r.add(t, q(r.mul(bef, q(r.rnd(c[i*n+j]))))))
			}
			c[i*n+j] = float64(t)
		}
	}
}

func (r *flushRef) trsm(m, n int, a, b []float64) {
	af, bf := r.pack(a, nil), r.pack(b, nil)
	for i := 0; i < m; i++ {
		bi := bf[i*n:][:n]
		for j := 0; j < n; j++ {
			s := bi[j]
			for l := 0; l < j; l++ {
				s = r.sub(s, r.mul(bi[l], af[j*n+l]))
			}
			bi[j] = r.div(s, af[j*n+j])
		}
	}
	for i, v := range bf {
		b[i] = float64(v)
	}
}

// underflowMatrix draws values in (-1, 1) scaled by a power of ten per
// entry: 1e-40 is itself a binary32 subnormal, 1e-19·1e-21 and 1e-21·1e-21
// are subnormal or vanishing products, and the unscaled entries keep sums
// and pivots normal.
func underflowMatrix(rng *splitmix64, rows, cols int, scales ...float64) []float64 {
	m := goldenMatrix(rng, rows, cols)
	for i := range m {
		m[i] *= scales[rng.next()%uint64(len(scales))]
	}
	return m
}

var underflowScales = []float64{1, 1e-19, 1e-21, 1e-30, 1e-40}

func TestFloat32KernelsFlushSubnormals(t *testing.T) {
	var ref flushRef
	rng := splitmix64(0xf1a5)
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	quants := map[prec.Precision]func(float32) float32{
		prec.FP32: nil, prec.TF32: fp16.TF32Round, prec.BF16x32: fp16.BF16Round, prec.FP16x32: fp16.QuantF32,
	}
	for _, d := range goldenDims {
		a := underflowMatrix(&rng, d.m, d.k, underflowScales...)
		b := underflowMatrix(&rng, d.n, d.k, underflowScales...)
		c := underflowMatrix(&rng, d.m, d.n, underflowScales...)
		for _, beta := range []float64{1, 0} {
			for p, quant := range quants {
				got, want := clone(c), clone(c)
				GemmNTPrec(p, d.m, d.n, d.k, -1, a, d.k, b, d.k, beta, got, d.n)
				ref.gemm(d.m, d.n, d.k, -1, a, b, beta, want, quant)
				sameBits(t, "GemmNT "+p.String(), got, want)
			}
			got, want := clone(c), clone(c)
			GemmNTPrec(prec.FP16, d.m, d.n, d.k, -1, a, d.k, b, d.k, beta, got, d.n)
			ref.gemmFP16(d.m, d.n, d.k, -1, a, b, beta, want)
			sameBits(t, "GemmNTFP16", got, want)
		}

		// Unit-scale diagonals keep the solves well posed; the triangle's
		// off-diagonal entries stay small enough for diagonal dominance.
		tri := underflowMatrix(&rng, d.n, d.n, 1e-3, 1e-19, 1e-21, 1e-40)
		for i := 0; i < d.n; i++ {
			tri[i*d.n+i] = 2 + math.Abs(tri[i*d.n+i])
		}
		got, want := clone(c), clone(c)
		TrsmRLT32(d.m, d.n, tri, d.n, got, d.n)
		ref.trsm(d.m, d.n, tri, want)
		sameBits(t, "TrsmRLT32", got, want)
	}
	if ref.flushed == 0 {
		t.Fatal("the inputs never reached the binary32 subnormal range")
	}
}

// mxcsrControl masks the sticky exception flags (bits 0–5), which any
// floating-point instruction may set.
const mxcsrControl = ^uint32(0x3f)

func TestMXCSRDefaultOutsideKernels(t *testing.T) {
	// Stay on one thread so every read is of the register the kernels ran on.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const n = 8
	want := getMXCSR() & mxcsrControl
	if want != 0x1f80 {
		t.Fatalf("MXCSR control bits = %#x before any kernel, want the 0x1f80 default", want)
	}
	rng := splitmix64(0xc5)
	a := goldenMatrix(&rng, n, n)
	c := goldenMatrix(&rng, n, n)
	spd := goldenSPD(&rng, n)
	kernels := map[string]func(){
		"GemmNT32":      func() { GemmNTPrec(prec.FP32, n, n, n, -1, a, n, a, n, 1, c, n) },
		"GemmNTTF32":    func() { GemmNTPrec(prec.TF32, n, n, n, -1, a, n, a, n, 1, c, n) },
		"GemmNTBF16x32": func() { GemmNTPrec(prec.BF16x32, n, n, n, -1, a, n, a, n, 1, c, n) },
		"GemmNTFP16x32": func() { GemmNTPrec(prec.FP16x32, n, n, n, -1, a, n, a, n, 1, c, n) },
		"GemmNTFP16":    func() { GemmNTPrec(prec.FP16, n, n, n, -1, a, n, a, n, 1, c, n) },
		"TrsmRLT32":     func() { TrsmRLT32(n, n, spd, n, c, n) },
		// An index panic from inside the region: C is one row short.
		"GemmNT32 panic": func() {
			defer func() {
				if recover() == nil {
					t.Error("short C did not panic")
				}
			}()
			GemmNTPrec(prec.FP32, n, n, n, -1, a, n, a, n, 1, c[:n*(n-1):n*(n-1)], n)
		},
	}
	for name, run := range kernels {
		run()
		if got := getMXCSR() & mxcsrControl; got != want {
			t.Errorf("MXCSR control bits = %#x after %s, want %#x", got, name, want)
		}
	}
}

// A float64 kernel on another goroutine must keep IEEE gradual underflow
// while float32 kernels hold their threads in flush-to-zero mode — at every
// width: the VEX and EVEX arithmetic of the wide FP64 kernels obeys MXCSR
// exactly as the SSE2 forms do. One P forces the goroutines to take turns
// on the processor, so a mode that leaked through a preempted kernel would
// reach the float64 loop.
func TestFloat64KeepsGradualUnderflow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 32
	rng := splitmix64(0x64)
	a32 := goldenMatrix(&rng, n, n)
	// 1e-160·1e-160 is a float64 subnormal: zero under FTZ or DAZ.
	a := make([]float64, n*n)
	for i := range a {
		a[i] = 1e-160
	}
	forEachWidth(t, func(t *testing.T) {
		var calls atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := make([]float64, n*n)
				for !stop.Load() {
					GemmNTPrec(prec.FP32, n, n, n, -1, a32, n, a32, n, 0, c, n)
					calls.Add(1)
				}
			}()
		}
		c := make([]float64, n*n)
		for iter := 0; iter < 50 || calls.Load() < 2000; iter++ {
			GemmNTPrec(prec.FP64, n, n, n, 1, a, n, a, n, 0, c, n)
			// Judged on the bits: a float comparison would itself read the
			// subnormal as zero on a thread the mode had leaked to.
			if bits := math.Float64bits(c[0]); bits == 0 || bits>>52 != 0 {
				t.Errorf("iteration %d: FP64 GemmNT gave %#x, want a float64 subnormal", iter, bits)
				break
			}
		}
		stop.Store(true)
		wg.Wait()
	})
}

// minTime is the fastest of several runs, the reading least disturbed by
// whatever else the machine is doing.
func minTime(run func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 20; i++ {
		start := time.Now()
		run()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// Stall guard: operands whose products underflow binary32 cost about a
// hundred times the normal-operand time when every such SSE operation takes
// a microcode assist (BENCH_kernels.json, the -underflow rows).
func TestUnderflowDoesNotStall(t *testing.T) {
	const n = 64
	normal := benchMatrix(n, n)
	tiny := scaled(normal, 1e-21)
	triNormal, triTiny := benchTriangle(normal, n), benchTriangle(tiny, n)
	c := make([]float64, n*n)
	rhs := make([]float64, n*n)

	gemm := func(ab []float64) func() {
		return func() { GemmNTPrec(prec.FP32, n, n, n, -1, ab, n, ab, n, 0, c, n) }
	}
	trsm := func(tri, b []float64) func() {
		return func() {
			copy(rhs, b)
			TrsmRLT32(n, n, tri, n, rhs, n)
		}
	}
	for _, k := range []struct {
		name         string
		normal, tiny func()
	}{
		{"GemmNT32", gemm(normal), gemm(tiny)},
		{"TrsmRLT32", trsm(triNormal, normal), trsm(triTiny, tiny)},
	} {
		base, under := minTime(k.normal), minTime(k.tiny)
		if under > 5*base {
			t.Errorf("%s 64³: %v on underflowing operands, %v on normal ones (> 5×)", k.name, under, base)
		}
	}
}
