#include "textflag.h"
#include "go_asm.h"

// The tabulated Matérn and the squared-exponential kernels a vector of
// entries at a time (lanes_amd64.go). Lane i of every vector is one entry,
// and it performs the bound kernel's scalar Cov operations on that entry in
// Cov's order, one rounding each. Written once against the width macros
// below and instantiated, in the entry points maternRow and sqexpRow, at
// AVX2 (4 lanes) and AVX-512F (8 lanes). Each maternRow iteration carries
// two vectors, chains A and B, whose gathers and recurrences overlap.
//
//	VB               bytes per vector
//	VOR/VAND/VXOR    bitwise or, and, xor (VEX or EVEX encoding)
//	GATHER(d, i, g, m, k)  g = lane-wise coef[d/8 + i] (m or k is the mask it consumes)
//	ALLREADY(ok, l)  jump to l unless bit 0 of every lane of ok is set
//	CLAMP(v, z, m)   v = 0 in lanes where v is NaN or negative (clobbers z, m)
//	OUTSIDE(r, z, m, l)  jump to l if a lane of r is NaN or outside [0, 708] (clobbers z, m)
//
// Registers: SI the current entry, DX the end of h, DI its start. In
// maternRow CX is the coefficient table, V15 β, V14 and V13 the ready
// words, V0–V5 chain A and V6–V11 chain B; in sqexpRow V15 is β and V14 σ².

// CONST8 is a 64-byte constant of eight equal quadwords, read whole as a
// memory operand at either width.
#define CONST8(name, v) \
	DATA name<>+0(SB)/8, v  \
	DATA name<>+8(SB)/8, v  \
	DATA name<>+16(SB)/8, v \
	DATA name<>+24(SB)/8, v \
	DATA name<>+32(SB)/8, v \
	DATA name<>+40(SB)/8, v \
	DATA name<>+48(SB)/8, v \
	DATA name<>+56(SB)/8, v \
	GLOBL name<>(SB), RODATA|NOPTR, $64

CONST8(lnOne, $1)
CONST8(lnTabFirst, $const_tabFirst)
CONST8(ln64, $64)
CONST8(lnCoefs, $const_tabCoefs)
CONST8(lnMask50, $0x3ffffffffffff)
CONST8(lnTwo52, $0x4330000000000000)
CONST8(lnTwo52m1, $0x432ffffffffffffe) // 2⁵² − 1
CONST8(lnTwoM49, $0x3ce0000000000000)  // 2⁻⁴⁹
CONST8(lnSign, $0x8000000000000000)

// math.Exp's constants (math/exp_amd64.s), in its spelling.
CONST8(lnLog2e, $1.4426950408889634073599246810018920)
CONST8(lnLn2U, $0.69314718055966295651160180568695068359375)
CONST8(lnLn2L, $0.28235290563031577122588448175013436025525412068e-12)
CONST8(lnShift, $0x4338000000000000) // 1.5·2⁵²: adding it rounds to an integer, ties to even
CONST8(lnBias, $1023)
CONST8(lnSixteenth, $0.0625)
CONST8(lnP8, $2.4801587301587301587e-5)
CONST8(lnP7, $1.9841269841269841270e-4)
CONST8(lnP6, $1.3888888888888888889e-3)
CONST8(lnP5, $8.3333333333333333333e-3)
CONST8(lnP4, $4.1666666666666666667e-2)
CONST8(lnP3, $1.6666666666666666667e-1)
CONST8(lnHalf, $0.5)
CONST8(lnOneF, $1.0)
CONST8(lnTwo, $2.0)
CONST8(ln708, $708.0)

// PROLOGUE loads the vector at off(SI) and leaves r = h/β in c2,
// u = Float64bits(r)−1 in c3, the panel p = u>>50 − tabFirst in c1, and in
// bit 0 of c5 whether p is ready: (ready0 >> p) | (ready1 >> (p−64)), where
// a shift count outside [0, 64) gives 0, so r outside the table reads 0.
#define PROLOGUE(off, c0, c1, c2, c3, c4, c5) \
	VMOVUPD off(SI), c2                 \
	VDIVPD  V15, c2, c2                 \
	VPSUBQ  lnOne<>(SB), c2, c3         \
	VPSRLQ  $50, c3, c1                 \
	VPSUBQ  lnTabFirst<>(SB), c1, c1    \
	VPSRLVQ c1, V14, c4                 \
	VPSUBQ  ln64<>(SB), c1, c5          \
	VPSRLVQ c5, V13, c5                 \
	VOR(c4, c5, c5)

// PREP turns p into the offset of coef[p] (in elements) and u into
// t2 = 2t, t = float64(u&(2⁵⁰−1)+1)·2⁻⁴⁹ − 1: the integer is made exact
// through 2⁵² + m − (2⁵² − 1).
#define PREP(c0, c1, c3) \
	VPMULUDQ lnCoefs<>(SB), c1, c1      \
	VAND(lnMask50<>(SB), c3, c3)        \
	VOR(lnTwo52<>(SB), c3, c3)          \
	VSUBPD   lnTwo52m1<>(SB), c3, c3    \
	VMULPD   lnTwoM49<>(SB), c3, c3     \
	VSUBPD   lnOneF<>(SB), c3, c3       \
	VADDPD   c3, c3, c0

// EXPNEG turns the r in c2 into exp(−r): math.Exp's FMA path, whose
// CVTSD2SL (round to nearest) is the add and subtract of 1.5·2⁵², and whose
// final ldexp cannot leave the normal range for 0 ≤ r ≤ 708.
#define EXPNEG(c2, c3, c4) \
	VXOR(lnSign<>(SB), c2, c2)            \
	VMULPD lnLog2e<>(SB), c2, c3          \
	VADDPD lnShift<>(SB), c3, c3          \
	VSUBPD lnShift<>(SB), c3, c4          \
	VFNMADD231PD lnLn2U<>(SB), c4, c2     \
	VFNMADD231PD lnLn2L<>(SB), c4, c2     \
	VMULPD lnSixteenth<>(SB), c2, c2      \
	VMOVUPD lnP8<>(SB), c4                \
	VFMADD213PD lnP7<>(SB), c2, c4        \
	VFMADD213PD lnP6<>(SB), c2, c4        \
	VFMADD213PD lnP5<>(SB), c2, c4        \
	VFMADD213PD lnP4<>(SB), c2, c4        \
	VFMADD213PD lnP3<>(SB), c2, c4        \
	VFMADD213PD lnHalf<>(SB), c2, c4      \
	VFMADD213PD lnOneF<>(SB), c2, c4      \
	VMULPD c4, c2, c2                     \
	VADDPD lnTwo<>(SB), c2, c4            \
	VMULPD c4, c2, c2                     \
	VADDPD lnTwo<>(SB), c2, c4            \
	VMULPD c4, c2, c2                     \
	VADDPD lnTwo<>(SB), c2, c4            \
	VMULPD c4, c2, c2                     \
	VADDPD lnTwo<>(SB), c2, c4            \
	VFMADD213PD lnOneF<>(SB), c4, c2      \
	VPADDQ lnBias<>(SB), c3, c3           \
	VPSLLQ $52, c3, c3                    \
	VMULPD c3, c2, c2

// STEP is one Clenshaw step on coefficient d/8: y = t2·x − y + c, after
// which y holds b1 and x b2.
#define STEP(d, c0, c1, x, y, c4, c5, k) \
	GATHER(d, c1, c4, c5, k) \
	VMULPD x, c0, c5         \
	VSUBPD y, c5, y          \
	VADDPD c4, y, y

// CLENSHAW runs the twelve steps from b1 = b2 = 0; b1 ends in c2, b2 in c3.
#define CLENSHAW(c0, c1, c2, c3, c4, c5, k) \
	VXOR(c2, c2, c2)                    \
	VXOR(c3, c3, c3)                    \
	STEP(96, c0, c1, c2, c3, c4, c5, k) \
	STEP(88, c0, c1, c3, c2, c4, c5, k) \
	STEP(80, c0, c1, c2, c3, c4, c5, k) \
	STEP(72, c0, c1, c3, c2, c4, c5, k) \
	STEP(64, c0, c1, c2, c3, c4, c5, k) \
	STEP(56, c0, c1, c3, c2, c4, c5, k) \
	STEP(48, c0, c1, c2, c3, c4, c5, k) \
	STEP(40, c0, c1, c3, c2, c4, c5, k) \
	STEP(32, c0, c1, c2, c3, c4, c5, k) \
	STEP(24, c0, c1, c3, c2, c4, c5, k) \
	STEP(16, c0, c1, c2, c3, c4, c5, k) \
	STEP(8, c0, c1, c3, c2, c4, c5, k)

// CLENSHAW2 is CLENSHAW on chains A and B, step by step.
#define CLENSHAW2 \
	VXOR(V2, V2, V2) \
	VXOR(V3, V3, V3) \
	VXOR(V8, V8, V8) \
	VXOR(V9, V9, V9) \
	STEP(96, V0, V1, V2, V3, V4, V5, K1) \
	STEP(96, V6, V7, V8, V9, V10, V11, K2) \
	STEP(88, V0, V1, V3, V2, V4, V5, K1) \
	STEP(88, V6, V7, V9, V8, V10, V11, K2) \
	STEP(80, V0, V1, V2, V3, V4, V5, K1) \
	STEP(80, V6, V7, V8, V9, V10, V11, K2) \
	STEP(72, V0, V1, V3, V2, V4, V5, K1) \
	STEP(72, V6, V7, V9, V8, V10, V11, K2) \
	STEP(64, V0, V1, V2, V3, V4, V5, K1) \
	STEP(64, V6, V7, V8, V9, V10, V11, K2) \
	STEP(56, V0, V1, V3, V2, V4, V5, K1) \
	STEP(56, V6, V7, V9, V8, V10, V11, K2) \
	STEP(48, V0, V1, V2, V3, V4, V5, K1) \
	STEP(48, V6, V7, V8, V9, V10, V11, K2) \
	STEP(40, V0, V1, V3, V2, V4, V5, K1) \
	STEP(40, V6, V7, V9, V8, V10, V11, K2) \
	STEP(32, V0, V1, V2, V3, V4, V5, K1) \
	STEP(32, V6, V7, V8, V9, V10, V11, K2) \
	STEP(24, V0, V1, V3, V2, V4, V5, K1) \
	STEP(24, V6, V7, V9, V8, V10, V11, K2) \
	STEP(16, V0, V1, V2, V3, V4, V5, K1) \
	STEP(16, V6, V7, V8, V9, V10, V11, K2) \
	STEP(8, V0, V1, V3, V2, V4, V5, K1) \
	STEP(8, V6, V7, V9, V8, V10, V11, K2)

// FINISH stores (t·b1 − b2 + c0)·exp(−r), NaN or negative as 0, at off(SI).
// t = t2·0.5 exactly.
#define FINISH(off, c0, c1, c2, c3, c4, c5, k) \
	GATHER(0, c1, c4, c5, k)            \
	VMULPD lnHalf<>(SB), c0, c1         \
	VMULPD c2, c1, c1                   \
	VSUBPD c3, c1, c1                   \
	VADDPD c4, c1, c1                   \
	VMULPD off(SI), c1, c1              \
	CLAMP(c1, c3, c5)                   \
	VMOVUPD c1, off(SI)

// RETDONE returns the number of entries done, (SI − DI)/8, in ret.
#define RETDONE(ret) \
	SUBQ DI, SI \
	SHRQ $3, SI \
	MOVQ SI, ret \
	VZEROUPPER  \
	RET

// ROW_BODY is the kernel at one width; its labels are parameters, as both
// widths share one TEXT block.
#define ROW_BODY(pair, single, done) \
	MOVQ h_base+8(FP), SI                       \
	MOVQ h_len+16(FP), DX                       \
	LEAQ (SI)(DX*8), DX                         \
	MOVQ SI, DI                                 \
	MOVQ coef+56(FP), CX                        \
	VBROADCASTSD beta+32(FP), V15               \
	VPBROADCASTQ ready0+40(FP), V14             \
	VPBROADCASTQ ready1+48(FP), V13             \
pair:                                           \
	LEAQ (2*VB)(SI), AX                         \
	CMPQ AX, DX                                 \
	JHI  single                                 \
	PROLOGUE(0, V0, V1, V2, V3, V4, V5)         \
	PROLOGUE(VB, V6, V7, V8, V9, V10, V11)      \
	VAND(V11, V5, V5)                           \
	ALLREADY(V5, single)                        \
	PREP(V0, V1, V3)                            \
	PREP(V6, V7, V9)                            \
	EXPNEG(V2, V3, V4)                          \
	EXPNEG(V8, V9, V10)                         \
	VMOVUPD V2, 0(SI)                           \
	VMOVUPD V8, VB(SI)                          \
	CLENSHAW2                                   \
	FINISH(0, V0, V1, V2, V3, V4, V5, K1)       \
	FINISH(VB, V6, V7, V8, V9, V10, V11, K2)    \
	ADDQ $(2*VB), SI                            \
	JMP  pair                                   \
single:                                         \
	LEAQ VB(SI), AX                             \
	CMPQ AX, DX                                 \
	JHI  done                                   \
	PROLOGUE(0, V0, V1, V2, V3, V4, V5)         \
	ALLREADY(V5, done)                          \
	PREP(V0, V1, V3)                            \
	EXPNEG(V2, V3, V4)                          \
	VMOVUPD V2, 0(SI)                           \
	CLENSHAW(V0, V1, V2, V3, V4, V5, K1)        \
	FINISH(0, V0, V1, V2, V3, V4, V5, K1)       \
	ADDQ $VB, SI                                \
	JMP  pair                                   \
done:                                           \
	RETDONE(ret+64(FP))

// SQEXP_BODY is sqexpRow at one width: r = h·h/β, exp(−r), ×σ², a vector
// at a time until a tail shorter than a vector or a vector OUTSIDE rejects.
#define SQEXP_BODY(loop, done) \
	MOVQ h_base+8(FP), SI          \
	MOVQ h_len+16(FP), DX          \
	LEAQ (SI)(DX*8), DX            \
	MOVQ SI, DI                    \
	VBROADCASTSD sigma2+32(FP), V14 \
	VBROADCASTSD beta+40(FP), V15  \
loop:                              \
	LEAQ VB(SI), AX                \
	CMPQ AX, DX                    \
	JHI  done                      \
	VMOVUPD (SI), V2               \
	VMULPD  V2, V2, V2             \
	VDIVPD  V15, V2, V2            \
	OUTSIDE(V2, V3, V4, done)      \
	EXPNEG(V2, V3, V4)             \
	VMULPD  V14, V2, V2            \
	VMOVUPD V2, (SI)               \
	ADDQ $VB, SI                   \
	JMP  loop                      \
done:                              \
	RETDONE(ret+48(FP))

// ---- AVX2: 4 lanes ----

#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V5 Y5
#define V6 Y6
#define V7 Y7
#define V8 Y8
#define V9 Y9
#define V10 Y10
#define V11 Y11
#define V13 Y13
#define V14 Y14
#define V15 Y15
#define VB 32
#define VOR(a, b, d) VPOR a, b, d
#define VAND(a, b, d) VPAND a, b, d
#define VXOR(a, b, d) VPXOR a, b, d
#define GATHER(d, i, g, m, k) \
	VPCMPEQQ m, m, m \
	VGATHERQPD m, d(CX)(i*8), g
#define ALLREADY(ok, l) \
	VPTEST lnOne<>(SB), ok \
	JCC    l
#define CLAMP(v, z, m) \
	VXORPD z, z, z          \
	VCMPPD $0x1d, z, v, m   \
	VANDPD m, v, v

// func maternRow(w int, h []float64, beta float64, ready0, ready1 uint64, coef *[tabPanels][tabCoefs]float64) int
TEXT ·maternRow(SB), NOSPLIT, $0-72
	CMPQ w+0(FP), $8
	JEQ  wide
	ROW_BODY(pair4, single4, done4)

#undef V0
#undef V1
#undef V2
#undef V3
#undef V4
#undef V5
#undef V6
#undef V7
#undef V8
#undef V9
#undef V10
#undef V11
#undef V13
#undef V14
#undef V15
#undef VB
#undef VOR
#undef VAND
#undef VXOR
#undef GATHER
#undef ALLREADY
#undef CLAMP

// ---- AVX-512F: 8 lanes ----

#define V0 Z0
#define V1 Z1
#define V2 Z2
#define V3 Z3
#define V4 Z4
#define V5 Z5
#define V6 Z6
#define V7 Z7
#define V8 Z8
#define V9 Z9
#define V10 Z10
#define V11 Z11
#define V13 Z13
#define V14 Z14
#define V15 Z15
#define VB 64
#define VOR(a, b, d) VPORQ a, b, d
#define VAND(a, b, d) VPANDQ a, b, d
#define VXOR(a, b, d) VPXORQ a, b, d
#define GATHER(d, i, g, m, k) \
	KXNORW k, k, k \
	VGATHERQPD d(CX)(i*8), k, g
#define ALLREADY(ok, l) \
	VPTESTNMQ lnOne<>(SB), ok, K3 \
	KORTESTW  K3, K3              \
	JNE       l
#define CLAMP(v, z, m) \
	VPXORQ z, z, z          \
	VCMPPD $0x1d, z, v, K3  \
	VMOVUPD.Z v, K3, v
#define OUTSIDE(r, z, m, l) \
	VCMPPD $0x16, ln708<>(SB), r, K3 \
	VPXORQ z, z, z                   \
	VCMPPD $0x11, z, r, K4           \
	KORTESTW K3, K4                  \
	JNE      l

wide:
	ROW_BODY(pair8, single8, done8)

// func sqexpRow(w int, h []float64, sigma2, beta float64) int
TEXT ·sqexpRow(SB), NOSPLIT, $0-56
	CMPQ w+0(FP), $8
	JNE  narrow
	SQEXP_BODY(loop8, done8)

// Back to AVX2 for the narrow half, redefining only what SQEXP_BODY uses.

#undef V2
#undef V3
#undef V4
#undef V14
#undef V15
#undef VB
#undef VXOR
#undef OUTSIDE
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V14 Y14
#define V15 Y15
#define VB 32
#define VXOR(a, b, d) VPXOR a, b, d
#define OUTSIDE(r, z, m, l) \
	VCMPPD $0x16, ln708<>(SB), r, m \
	VXORPD z, z, z                  \
	VCMPPD $0x11, z, r, z           \
	VPOR   z, m, m                  \
	VPTEST m, m                     \
	JNE    l

narrow:
	SQEXP_BODY(loop4, done4)
