#include "textflag.h"
#include "go_asm.h"

// The loops of Temme's series (temmeSeries) and of Steed's CF2 (steedCF2),
// a vector of arguments at a time (lanes_amd64.go). Lane i of a vector is one
// argument: it performs the scalar loop's operations on that argument in
// the loop's order, one rounding each (no FMA). The iteration at which a
// lane's own convergence test first passes copies its results out (DONE);
// the lane keeps iterating with the others, but nothing it computes from
// then on is read. Freezing the state instead would put every iteration's
// convergence test (CF2's is a division) on the loop-carried chain. The vector
// stops when no lane is left, or after maxIter iterations with the lanes
// left in progress copied out as they stand (KEEP). What is the same in
// every lane (i, i·i − μ·μ, i ∓ μ in Temme's; CF2's a and c) is computed in
// scalar registers and broadcast. Written once against the width macros
// below and instantiated, in the entry points temmeLanes and cf2Lanes, at
// AVX2 (4 lanes) and AVX-512F (8 lanes).
//
//	VB                  bytes per vector
//	VAND/VXOR           bitwise and, xor (VEX or EVEX encoding)
//	ALLON               every lane of the vector in progress
//	DONE(y, x, r1, o1, r2, o2)  the lanes in progress where x < y are done,
//	                    with o1 = r1 and o2 = r2 (clobbers x)
//	KEEP(r, o)          o = r in the lanes in progress
//	CF2DONE(l), CF2KEEP the same for CF2, storing h and s (l a label)
//	NONELEFT(l)         jump to l if no lane is in progress
//
// Registers: DI the batch, SI the byte offset of the current vector in each
// of its arrays, DX the end of the lanes, CX the iteration i. The lanes in
// progress are Y11 at AVX2 (all ones) and K1 at AVX-512.
//
// temmeLanes: V0 ff, V1 c, V2 p, V3 q, V4 sum, V5 sum1, V6 dd, V7 and V8
// the sums copied out; V12 i, V13 i·i − μ·μ, V14 i − μ, V15 i + μ (their
// scalars in X12–X15); V9, V10 scratch.
// cf2Lanes: V0 b, V1 d, V2 h, V3 Δh, V4 q1, V5 q2, V6 q, V7 s, from
// steedCF2's start at x; h and s are stored as the lanes are done (CF2DONE,
// CF2KEEP); a and c are kept at a-8(SP), c-16(SP) and broadcast to V12,
// V13; X14 i; V8–V10, X15 scratch.

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

CONST8(bsOne, $1.0)
CONST8(bsTwo, $2.0)
CONST8(bsEps, $1e-16) // epsK
CONST8(bsAbs, $0x7fffffffffffffff)
CONST8(bsSign, $0x8000000000000000)
CONST8(bsEpsLo, $0x3c9cd2b297d8899f) // ε·(1 − 2⁻⁴⁸), rounded down
CONST8(bsEpsHi, $0x3c9cd2b297d889d9) // ε·(1 + 2⁻⁴⁸), rounded up
CONST8(bsSMin, $0x07b0000000000000)  // 2⁻⁹⁰⁰
CONST8(bsSMax, $0x7830000000000000)  // 2⁹⁰⁰

// TEMME_BODY is temmeLanes at one width; its labels are parameters, as both
// widths share one TEXT block.
#define TEMME_BODY(vector, iter, next, done) \
	MOVQ t+8(FP), DI                       \
	MOVQ n+16(FP), DX                      \
	SHLQ $3, DX                            \
	XORQ SI, SI                            \
vector:                                    \
	CMPQ SI, DX                            \
	JGE  done                              \
	VMOVUPD temmeBatch_ff(DI)(SI*1), V0    \
	VMOVUPD bsOne<>(SB), V1                \
	VMOVUPD temmeBatch_p(DI)(SI*1), V2     \
	VMOVUPD temmeBatch_q(DI)(SI*1), V3     \
	VMOVUPD V0, V4                         \
	VMOVUPD V2, V5                         \
	VMOVUPD temmeBatch_dd(DI)(SI*1), V6    \
	ALLON                                  \
	VXORPD X12, X12, X12                   \
	MOVQ $1, CX                            \
iter:                                      \
	VADDSD bsOne<>(SB), X12, X12           \
	VMULSD X12, X12, X13                   \
	VMOVSD mu+24(FP), X14                  \
	VMULSD X14, X14, X14                   \
	VSUBSD X14, X13, X13                   \
	VSUBSD mu+24(FP), X12, X14             \
	VADDSD mu+24(FP), X12, X15             \
	VBROADCASTSD X12, V12                  \
	VBROADCASTSD X13, V13                  \
	VBROADCASTSD X14, V14                  \
	VBROADCASTSD X15, V15                  \
	VMULPD V0, V12, V9                     \
	VADDPD V2, V9, V9                      \
	VADDPD V3, V9, V9                      \
	VDIVPD V13, V9, V0                     \
	VDIVPD V12, V6, V9                     \
	VMULPD V9, V1, V1                      \
	VDIVPD V14, V2, V2                     \
	VDIVPD V15, V3, V3                     \
	VMULPD V0, V1, V9                      \
	VADDPD V9, V4, V4                      \
	VMULPD V0, V12, V10                    \
	VSUBPD V10, V2, V10                    \
	VMULPD V10, V1, V10                    \
	VADDPD V10, V5, V5                     \
	VAND(bsAbs<>(SB), V9, V9)              \
	VAND(bsAbs<>(SB), V4, V10)             \
	VMULPD bsEps<>(SB), V10, V10           \
	DONE(V10, V9, V4, V7, V5, V8)          \
	NONELEFT(next)                         \
	INCQ CX                                \
	CMPQ CX, $const_maxIter                \
	JLE  iter                              \
	KEEP(V4, V7)                           \
	KEEP(V5, V8)                           \
next:                                      \
	VMOVUPD V7, temmeBatch_sum(DI)(SI*1)   \
	VMOVUPD V8, temmeBatch_sum1(DI)(SI*1)  \
	ADDQ $VB, SI                           \
	JMP  vector                            \
done:                                      \
	VZEROUPPER                             \
	RET

// CF2_BODY is cf2Lanes at one width. CF2's convergence test |dels/s| < ε
// is decided without the division where a margin allows it (CF2DONE): the
// loop is bound by the divider, and the division would be a third of it.
#define CF2_BODY(vector, iter, next, decided, done) \
	MOVQ c+8(FP), DI                     \
	MOVQ n+16(FP), DX                    \
	SHLQ $3, DX                          \
	XORQ SI, SI                          \
vector:                                  \
	CMPQ SI, DX                          \
	JGE  done                            \
	VMOVUPD cf2Batch_x(DI)(SI*1), V0     \
	VADDPD  bsOne<>(SB), V0, V0          \
	VADDPD  V0, V0, V0                   \
	VMOVUPD bsOne<>(SB), V5              \
	VDIVPD  V0, V5, V1                   \
	VMOVUPD V1, V2                       \
	VMOVUPD V1, V3                       \
	VXOR(V4, V4, V4)                     \
	VBROADCASTSD a1+24(FP), V6           \
	VMULPD  V3, V6, V7                   \
	VADDPD  V5, V7, V7                   \
	ALLON                                \
	VMOVSD a1+24(FP), X13                \
	VMOVSD X13, c-16(SP)                 \
	VXORPD bsSign<>(SB), X13, X12        \
	VMOVSD X12, a-8(SP)                  \
	VMOVSD bsOne<>(SB), X14              \
	MOVQ $2, CX                          \
iter:                                    \
	VADDSD bsOne<>(SB), X14, X14         \
	VSUBSD bsOne<>(SB), X14, X15         \
	VADDSD X15, X15, X15                 \
	VMOVSD a-8(SP), X12                  \
	VSUBSD X15, X12, X12                 \
	VMOVSD X12, a-8(SP)                  \
	VXORPD bsSign<>(SB), X12, X15        \
	VMULSD c-16(SP), X15, X15            \
	VDIVSD X14, X15, X13                 \
	VMOVSD X13, c-16(SP)                 \
	VBROADCASTSD X12, V12                \
	VBROADCASTSD X13, V13                \
	VMULPD V5, V0, V10                   \
	VSUBPD V10, V4, V10                  \
	VDIVPD V12, V10, V10                 \
	VMOVUPD V5, V4                       \
	VMOVUPD V10, V5                      \
	VMULPD V10, V13, V10                 \
	VADDPD V10, V6, V6                   \
	VADDPD bsTwo<>(SB), V0, V0           \
	VMULPD V1, V12, V10                  \
	VADDPD V10, V0, V10                  \
	VMOVUPD bsOne<>(SB), V1              \
	VDIVPD V10, V1, V1                   \
	VMULPD V1, V0, V10                   \
	VSUBPD bsOne<>(SB), V10, V10         \
	VMULPD V10, V3, V3                   \
	VADDPD V3, V2, V2                    \
	VMULPD V3, V6, V10                   \
	VADDPD V10, V7, V7                   \
	CF2DONE(decided)                     \
	NONELEFT(next)                       \
	INCQ CX                              \
	CMPQ CX, $const_maxIter              \
	JLE  iter                            \
	CF2KEEP                              \
next:                                    \
	ADDQ $VB, SI                         \
	JMP  vector                          \
done:                                    \
	VZEROUPPER                           \
	RET

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
#define V12 Y12
#define V13 Y13
#define V14 Y14
#define V15 Y15
#define VB 32
#define VAND(a, b, d) VPAND a, b, d
#define VXOR(a, b, d) VPXOR a, b, d
#define ALLON VPCMPEQQ Y11, Y11, Y11
#define KEEP(n, d) VBLENDVPD Y11, n, d, d
#define DONE(y, x, r1, o1, r2, o2) \
	VCMPPD    $0x11, y, x, x \
	VANDPD    Y11, x, x      \
	VBLENDVPD x, r1, o1, o1  \
	VBLENDVPD x, r2, o2, o2  \
	VANDNPD   Y11, x, Y11
#define NONELEFT(l) \
	VPTEST Y11, Y11 \
	JEQ    l

// func temmeLanes(w int, t *temmeBatch, n int, mu float64)
TEXT ·temmeLanes(SB), NOSPLIT, $0-32
	CMPQ w+0(FP), $8
	JEQ  wide
	TEMME_BODY(vector4, iter4, next4, done4)

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
#undef V12
#undef V13
#undef V14
#undef V15
#undef VB
#undef VAND
#undef VXOR
#undef ALLON
#undef KEEP
#undef DONE
#undef NONELEFT

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
#define V12 Z12
#define V13 Z13
#define V14 Z14
#define V15 Z15
#define VB 64
#define VAND(a, b, d) VPANDQ a, b, d
#define VXOR(a, b, d) VPXORQ a, b, d
#define ALLON \
	MOVL  $0xff, AX \
	KMOVW AX, K1
#define KEEP(n, d) VMOVAPD n, K1, d
#define DONE(y, x, r1, o1, r2, o2) \
	VCMPPD  $0x11, y, x, K1, K2 \
	VMOVAPD r1, K2, o1          \
	VMOVAPD r2, K2, o2          \
	KANDNW  K1, K2, K1
#define NONELEFT(l) \
	KORTESTW K1, K1 \
	JEQ      l
#define CF2DONE(decided) \
	VPANDQ  bsAbs<>(SB), V10, V8             \
	VPANDQ  bsAbs<>(SB), V7, V9              \
	VCMPPD  $0x1d, bsSMin<>(SB), V9, K1, K3  \
	VCMPPD  $0x12, bsSMax<>(SB), V9, K3, K3  \
	VMULPD  bsEpsLo<>(SB), V9, V12           \
	VCMPPD  $0x11, V12, V8, K3, K4           \
	VMULPD  bsEpsHi<>(SB), V9, V12           \
	VCMPPD  $0x1e, V12, V8, K3, K5           \
	KORW    K4, K5, K5                       \
	KANDNW  K1, K5, K5                       \
	KORTESTW K5, K5                          \
	JEQ     decided                          \
	VDIVPD  V7, V10, V10                     \
	VPANDQ  bsAbs<>(SB), V10, V10            \
	VCMPPD  $0x11, bsEps<>(SB), V10, K1, K4  \
decided:                                     \
	VMOVUPD V2, K4, cf2Batch_h(DI)(SI*1)     \
	VMOVUPD V7, K4, cf2Batch_s(DI)(SI*1)   \
	KANDNW  K1, K4, K1
#define CF2KEEP \
	VMOVUPD V2, K1, cf2Batch_h(DI)(SI*1) \
	VMOVUPD V7, K1, cf2Batch_s(DI)(SI*1)

wide:
	TEMME_BODY(vector8, iter8, next8, done8)

// func cf2Lanes(w int, c *cf2Batch, n int, a1 float64)
TEXT ·cf2Lanes(SB), NOSPLIT, $16-32
	CMPQ w+0(FP), $8
	JNE  narrow
	CF2_BODY(vector8, iter8, next8, decided8, done8)

// Back to AVX2 for the narrow half.

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
#undef V12
#undef V13
#undef V14
#undef V15
#undef VB
#undef VAND
#undef VXOR
#undef ALLON
#undef KEEP
#undef DONE
#undef NONELEFT
#undef CF2DONE
#undef CF2KEEP
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
#define V12 Y12
#define V13 Y13
#define V14 Y14
#define V15 Y15
#define VB 32
#define VAND(a, b, d) VPAND a, b, d
#define VXOR(a, b, d) VPXOR a, b, d
#define ALLON VPCMPEQQ Y11, Y11, Y11
#define KEEP(n, d) VBLENDVPD Y11, n, d, d
#define DONE(y, x, r1, o1, r2, o2) \
	VCMPPD    $0x11, y, x, x \
	VANDPD    Y11, x, x      \
	VBLENDVPD x, r1, o1, o1  \
	VBLENDVPD x, r2, o2, o2  \
	VANDNPD   Y11, x, Y11
#define NONELEFT(l) \
	VPTEST Y11, Y11 \
	JEQ    l

#define CF2DONE(decided) \
	VPAND   bsAbs<>(SB), V10, V8         \
	VPAND   bsAbs<>(SB), V7, V9          \
	VCMPPD  $0x1d, bsSMin<>(SB), V9, V12 \
	VCMPPD  $0x12, bsSMax<>(SB), V9, V13 \
	VANDPD  V13, V12, V12                \
	VANDPD  Y11, V12, V12                \
	VMULPD  bsEpsLo<>(SB), V9, V13       \
	VCMPPD  $0x11, V13, V8, V13          \
	VMULPD  bsEpsHi<>(SB), V9, V9        \
	VCMPPD  $0x1e, V9, V8, V9            \
	VORPD   V13, V9, V9                  \
	VANDPD  V12, V9, V9                  \
	VANDPD  V12, V13, V13                \
	VANDNPD Y11, V9, V9                  \
	VPTEST  V9, V9                       \
	JEQ     decided                      \
	VDIVPD  V7, V10, V10                 \
	VPAND   bsAbs<>(SB), V10, V10        \
	VCMPPD  $0x11, bsEps<>(SB), V10, V13 \
	VANDPD  Y11, V13, V13                \
decided:                                 \
	VMASKMOVPD V2, V13, cf2Batch_h(DI)(SI*1)   \
	VMASKMOVPD V7, V13, cf2Batch_s(DI)(SI*1) \
	VANDNPD Y11, V13, Y11
#define CF2KEEP \
	VMASKMOVPD V2, Y11, cf2Batch_h(DI)(SI*1) \
	VMASKMOVPD V7, Y11, cf2Batch_s(DI)(SI*1)

narrow:
	CF2_BODY(vector4, iter4, next4, decided4, done4)
