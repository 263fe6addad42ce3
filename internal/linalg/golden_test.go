package linalg

import (
	"math"
	"testing"

	"geompc/internal/prec"
)

// Golden bit-exactness tests: FNV-1a digests over the raw float64 bits of
// every kernel's output on fixed seeded inputs, pinned from the seed
// (pre-blocking) kernels. Any change to rounding, accumulation order, or
// blocking that alters even one output bit fails these tests — they are the
// contract that the register-blocked and parallel kernels are drop-in
// replacements for the naive triple loops.

// splitmix64 is a tiny deterministic RNG (no math/rand dependency, so the
// byte stream can never change under us).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// goldenMatrix fills rows×cols values in (-1, 1).
func goldenMatrix(rng *splitmix64, rows, cols int) []float64 {
	m := make([]float64, rows*cols)
	for i := range m {
		m[i] = 2*float64(rng.next()>>11)/(1<<53) - 1
	}
	return m
}

// fnv1a64 hashes the bit patterns of v.
func fnv1a64(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range v {
		b := math.Float64bits(f)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

type dims struct{ m, n, k int }

// goldenDims exercises the micro-kernels' full and remainder paths.
var goldenDims = []dims{
	{64, 64, 64},
	{61, 53, 47}, // remainders in every dimension
	{8, 128, 16},
	{1, 1, 1},
}

// remainderDims end in a zero-padded column block at every vector width
// (nb = 4, 8, 16): the Monte-Carlo study's 49-tile, and one group of four
// rows against 17 columns. Digests recorded at commit 779e4ee, before the
// FP64 kernels went to the host's width.
var remainderDims = []dims{
	{49, 49, 49},
	{4, 17, 5},
}

// checkDigests compares got(p) with each pinned digest at every
// micro-kernel width the host can run.
func checkDigests(t *testing.T, kernel string, want map[prec.Precision]uint64, got func(p prec.Precision) uint64) {
	t.Helper()
	forEachWidth(t, func(t *testing.T) {
		for p, w := range want {
			if g := got(p); g != w {
				t.Errorf("%s %s digest = %#x, want %#x (output bits differ from seed kernels)", kernel, p, g, w)
			}
		}
	})
}

func gemmGolden(p prec.Precision, shapes []dims) uint64 {
	rng := splitmix64(0x5eed + splitmix64(p))
	h := uint64(14695981039346656037)
	for _, d := range shapes {
		a := goldenMatrix(&rng, d.m, d.k)
		b := goldenMatrix(&rng, d.n, d.k)
		c := goldenMatrix(&rng, d.m, d.n)
		// beta=1 path (the factorization's shape) and beta=0 path.
		GemmNTPrec(p, d.m, d.n, d.k, -1, a, d.k, b, d.k, 1, c, d.n)
		h ^= fnv1a64(c)
		h *= 1099511628211
		GemmNTPrec(p, d.m, d.n, d.k, 0.5, a, d.k, b, d.k, 0, c, d.n)
		h ^= fnv1a64(c)
		h *= 1099511628211
	}
	return h
}

// Pinned from the seed kernels (commit 1cd262a); regenerate only if the
// numeric contract deliberately changes.
var gemmGoldenWant = map[prec.Precision]uint64{
	prec.FP64:    0xab120b1a2f021e3d,
	prec.FP32:    0xc88672ea7df2d4cb,
	prec.TF32:    0xa48a57a412e79583,
	prec.BF16x32: 0x93375a8264445e40,
	prec.FP16x32: 0xff89ed1b8abb6ba9,
	prec.FP16:    0xe8cc676bf547b559,
}

var gemmRemainderWant = map[prec.Precision]uint64{
	prec.FP64:    0x3ee264259c6feeed,
	prec.FP32:    0x95af29a14d76f9af,
	prec.TF32:    0xb72b0f5e30359a18,
	prec.BF16x32: 0x99271ed1b9a910c6,
	prec.FP16x32: 0x3b51e805b6769d5e,
	prec.FP16:    0xf28f1f7145b57420,
}

func TestGemmGoldenDigests(t *testing.T) {
	checkDigests(t, "GemmNT", gemmGoldenWant, func(p prec.Precision) uint64 { return gemmGolden(p, goldenDims) })
	checkDigests(t, "GemmNT remainder", gemmRemainderWant, func(p prec.Precision) uint64 { return gemmGolden(p, remainderDims) })
}

func syrkGolden(p prec.Precision, shapes []dims) uint64 {
	rng := splitmix64(0x57a7 + splitmix64(p))
	h := uint64(14695981039346656037)
	for _, d := range shapes {
		a := goldenMatrix(&rng, d.n, d.k)
		c := goldenMatrix(&rng, d.n, d.n)
		syrkLN(d.n, d.k, -1, a, d.k, 1, c, d.n)
		h ^= fnv1a64(c)
		h *= 1099511628211
	}
	return h
}

var syrkGoldenWant = map[prec.Precision]uint64{
	prec.FP64: 0x21f42e2b0af04a18,
}

var syrkRemainderWant = map[prec.Precision]uint64{
	prec.FP64: 0x34b6b382d54da9dd,
}

func TestSyrkGoldenDigests(t *testing.T) {
	checkDigests(t, "SyrkLN", syrkGoldenWant, func(p prec.Precision) uint64 { return syrkGolden(p, goldenDims) })
	checkDigests(t, "SyrkLN remainder", syrkRemainderWant, func(p prec.Precision) uint64 { return syrkGolden(p, remainderDims) })
}

// goldenTriangle builds a well-conditioned lower-triangular matrix.
func goldenTriangle(rng *splitmix64, n int) []float64 {
	a := goldenMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 2 + math.Abs(a[i*n+i])
	}
	return a
}

func trsmGolden(p prec.Precision, shapes []dims) uint64 {
	rng := splitmix64(0x7125 + splitmix64(p))
	h := uint64(14695981039346656037)
	for _, d := range shapes {
		a := goldenTriangle(&rng, d.n)
		b := goldenMatrix(&rng, d.m, d.n)
		TrsmRLTPrec(p, d.m, d.n, a, d.n, b, d.n)
		h ^= fnv1a64(b)
		h *= 1099511628211
	}
	return h
}

var trsmGoldenWant = map[prec.Precision]uint64{
	prec.FP64: 0xf33deb8862d1b1a7,
	prec.FP32: 0x03d46bff763af620,
}

var trsmRemainderWant = map[prec.Precision]uint64{
	prec.FP64: 0x215503d1e4a7eaea,
	prec.FP32: 0x439aeefbc9315a38,
}

func TestTrsmGoldenDigests(t *testing.T) {
	checkDigests(t, "TrsmRLT", trsmGoldenWant, func(p prec.Precision) uint64 { return trsmGolden(p, goldenDims) })
	checkDigests(t, "TrsmRLT remainder", trsmRemainderWant, func(p prec.Precision) uint64 { return trsmGolden(p, remainderDims) })
}

// goldenSPD builds an SPD matrix A = B·Bᵀ + n·I.
func goldenSPD(rng *splitmix64, n int) []float64 {
	b := goldenMatrix(rng, n, n)
	a := make([]float64, n*n)
	GemmNTPrec(prec.FP64, n, n, n, 1, b, n, b, n, 0, a, n)
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

func potrfGolden(p prec.Precision, shapes []dims, t *testing.T) uint64 {
	rng := splitmix64(0x90 + splitmix64(p))
	h := uint64(14695981039346656037)
	for _, d := range shapes {
		a := goldenSPD(&rng, d.n)
		if err := PotrfLower(d.n, a, d.n); err != nil {
			t.Fatalf("POTRF %s n=%d: %v", p, d.n, err)
		}
		h ^= fnv1a64(a)
		h *= 1099511628211
	}
	return h
}

var potrfGoldenWant = map[prec.Precision]uint64{
	prec.FP64: 0x0b0bfcdd8a371286,
}

var potrfRemainderWant = map[prec.Precision]uint64{
	prec.FP64: 0x3ec6ae7b53b3381b,
}

// potrfBlockedWant pins PotrfLower over n ∈ {1, 61, 64, 200} — one block,
// a ragged last block at every width, whole blocks, and many — recorded at
// commit 779e4ee from the unblocked column loop. The digest covers the
// strict upper triangle too, which the factorization must leave alone.
const potrfBlockedWant = 0xd7a78eef3a8948ec

func TestPotrfGoldenDigests(t *testing.T) {
	checkDigests(t, "PotrfLower", potrfGoldenWant, func(p prec.Precision) uint64 { return potrfGolden(p, goldenDims, t) })
	checkDigests(t, "PotrfLower remainder", potrfRemainderWant, func(p prec.Precision) uint64 { return potrfGolden(p, remainderDims, t) })
	blocked := map[prec.Precision]uint64{prec.FP64: potrfBlockedWant}
	checkDigests(t, "PotrfLower blocked", blocked, func(prec.Precision) uint64 {
		return potrfGolden(prec.FP64, []dims{{n: 1}, {n: 61}, {n: 64}, {n: 200}}, t)
	})
}
