//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// The NT micro-kernel: four A rows × two vectors of B columns, k
// innermost. Lane jj of an accumulator is ONE output element, so every
// element sums its products in strictly increasing l with one rounding per
// multiply and one per add (no FMA) — the arithmetic of the naive triple
// loop at every vector width and in both precisions.
//
// One body per entry point, written against the width macros and the
// element macros below and instantiated six times: float64 and float32 at
// SSE2 (4×4 and 4×8), AVX2 (4×8 and 4×16) and AVX-512 (4×16 and 4×32). The
// width macros move bits and do not care about the element type:
//
//	V0..V12      vector registers of the width (X, Y or Z)
//	VB           bytes per vector
//	VZERO(r)     r = 0
//	VLOAD(m, r)  r = [m]        VSTORE(r, m)  [m] = r
//	KRET         return (VZEROUPPER first on the VEX/EVEX widths)
//
// The element macros are defined per precision beside each instantiation:
//
//	ESH            log2 of the element size
//	LBCAST(m, r)   r = every lane [m]
//	LMUL(m, b, t)  t = [m]·b    LADD(t, r)  r = r + t    LSUB(t, r)  r = r − t
//	LDIV(d, r)     r = r / d    LSCALE(s, r)  r = r·s
//	RBCAST, SLOAD, SSTORE, SSQRT, SRECIP, SUCOM: the one-element operations
//	of the lane kernel's finish (LANE_BODY)
//
// Registers: CX k in bytes, then the running offset −k..0; R8..R11 the four
// A rows (advanced by k so the offset counts up to zero); SI the packed B
// block (two vectors per l); DI C; DX, BX the row strides of C and A in
// bytes; R12 the third row of C; R13, R14 the addresses of alpha and beta.

// KERN_ROWS turns k and the element strides into bytes and derives the row
// pointers.
#define KERN_ROWS \
	SHLQ $ESH, BX            \
	SHLQ $ESH, DX            \
	SHLQ $ESH, CX            \
	ADDQ CX, R8              \
	LEAQ (R8)(BX*1), R9      \
	LEAQ (R9)(BX*1), R10     \
	LEAQ (R10)(BX*1), R11    \
	LEAQ (DI)(DX*2), R12     \
	NEGQ CX

// KERN_STORE writes the eight accumulators to the 4×2-vector block of C.
#define KERN_STORE \
	VSTORE(V0, 0(DI))        \
	VSTORE(V1, VB(DI))       \
	VSTORE(V2, 0(DI)(DX*1))  \
	VSTORE(V3, VB(DI)(DX*1)) \
	VSTORE(V4, 0(R12))       \
	VSTORE(V5, VB(R12))      \
	VSTORE(V6, 0(R12)(DX*1)) \
	VSTORE(V7, VB(R12)(DX*1))

// ROWADD(m, p, q): p += [m]·V8, q += [m]·V9 (separate multiply and add);
// ROWSUB subtracts.
#define ROWADD(m, p, q) \
	LBCAST(m, V10)           \
	LMUL(V8, V10, V11)       \
	LADD(V11, p)             \
	LMUL(V9, V10, V12)       \
	LADD(V12, q)

#define ROWSUB(m, p, q) \
	LBCAST(m, V10)           \
	LMUL(V8, V10, V11)       \
	LSUB(V11, p)             \
	LMUL(V9, V10, V12)       \
	LSUB(V12, q)

// DOT_BODY: s = Σ_l a[l]·b[l] from zero, then C = alpha·s + beta·C, or
// C = alpha·s without reading C when beta is ±0 (tested on the bits of a
// float64: a NaN beta takes the read-C path, as `beta == 0` in Go does).
// The float32 entry points pass alpha = 1 and beta = 0 from read-only data:
// they store the bare sums, and the float32 combine runs in Go.
#define DOT_BODY \
	KERN_ROWS                \
	VZERO(V0)                \
	VZERO(V1)                \
	VZERO(V2)                \
	VZERO(V3)                \
	VZERO(V4)                \
	VZERO(V5)                \
	VZERO(V6)                \
	VZERO(V7)                \
	TESTQ CX, CX             \
	JZ   dotscale            \
dotloop:                     \
	VLOAD(0(SI), V8)         \
	VLOAD(VB(SI), V9)        \
	ROWADD((R8)(CX*1), V0, V1)  \
	ROWADD((R9)(CX*1), V2, V3)  \
	ROWADD((R10)(CX*1), V4, V5) \
	ROWADD((R11)(CX*1), V6, V7) \
	ADDQ $(2*VB), SI         \
	ADDQ $(1<<ESH), CX       \
	JNZ  dotloop             \
dotscale:                    \
	LBCAST((R13), V10)       \
	LSCALE(V10, V0)          \
	LSCALE(V10, V1)          \
	LSCALE(V10, V2)          \
	LSCALE(V10, V3)          \
	LSCALE(V10, V4)          \
	LSCALE(V10, V5)          \
	LSCALE(V10, V6)          \
	LSCALE(V10, V7)          \
	MOVQ (R14), AX           \
	SHLQ $1, AX              \
	JZ   dotstore            \
	LBCAST((R14), V10)       \
	VLOAD(0(DI), V8)         \
	VLOAD(VB(DI), V9)        \
	LSCALE(V10, V8)          \
	LSCALE(V10, V9)          \
	LADD(V8, V0)             \
	LADD(V9, V1)             \
	VLOAD(0(DI)(DX*1), V8)   \
	VLOAD(VB(DI)(DX*1), V9)  \
	LSCALE(V10, V8)          \
	LSCALE(V10, V9)          \
	LADD(V8, V2)             \
	LADD(V9, V3)             \
	VLOAD(0(R12), V8)        \
	VLOAD(VB(R12), V9)       \
	LSCALE(V10, V8)          \
	LSCALE(V10, V9)          \
	LADD(V8, V4)             \
	LADD(V9, V5)             \
	VLOAD(0(R12)(DX*1), V8)  \
	VLOAD(VB(R12)(DX*1), V9) \
	LSCALE(V10, V8)          \
	LSCALE(V10, V9)          \
	LADD(V8, V6)             \
	LADD(V9, V7)             \
dotstore:                    \
	KERN_STORE               \
	KRET

// SUB_BODY: the accumulators start from C and subtract each product,
// s −= a[l]·b[l] in increasing l — the recurrence of the triangular solve
// and of the left-looking Cholesky update.
#define SUB_BODY \
	KERN_ROWS                \
	VLOAD(0(DI), V0)         \
	VLOAD(VB(DI), V1)        \
	VLOAD(0(DI)(DX*1), V2)   \
	VLOAD(VB(DI)(DX*1), V3)  \
	VLOAD(0(R12), V4)        \
	VLOAD(VB(R12), V5)       \
	VLOAD(0(R12)(DX*1), V6)  \
	VLOAD(VB(R12)(DX*1), V7) \
	TESTQ CX, CX             \
	JZ   substore            \
subloop:                     \
	VLOAD(0(SI), V8)         \
	VLOAD(VB(SI), V9)        \
	ROWSUB((R8)(CX*1), V0, V1)  \
	ROWSUB((R9)(CX*1), V2, V3)  \
	ROWSUB((R10)(CX*1), V4, V5) \
	ROWSUB((R11)(CX*1), V6, V7) \
	ADDQ $(2*VB), SI         \
	ADDQ $(1<<ESH), CX       \
	JNZ  subloop             \
substore:                    \
	KERN_STORE               \
	KRET

// LANE_BODY: the lane kernel (lanesGo in kernel.go). x holds one group of
// rows transposed, a row per lane, so a column of the group is two vectors;
// for each column j in [j0, j1) every lane runs s −= x[l]·a(j, l) over
// l = l0..j−1 (separate multiply and subtract), then finishes by mode:
// laneDiv divides by a(j, j); laneScale multiplies by 1/a(j, j), the
// reciprocal taken on one element and broadcast; lanePivot first stores s
// and reads back the pivot, the lane of x[j] that a(j, j) names, returns
// unless it compares above zero (JLS also takes NaN, which compares
// unordered), and scales by the reciprocal of its square root, which then
// replaces the pivot lane. The same body runs on float64 and on float32
// lanes — ESH, the L* (vector) and S* (one element) macros are defined per
// precision beside each instantiation — and on float32 a column holds
// twice the rows.
//
// Registers: DI x[l0]; SI x[j]; R8 a(j, l0), R9 a(j, l) walking l by DX
// (cs in bytes) and ending on a(j, j); BX rs in bytes; R12 the length
// j − l0 of column j's recurrence; R13 x[l]; CX the l count; R10 the number
// of columns j1 − j0; AX the columns finished; R11 mode.
#define LANE_BODY \
	SHLQ $ESH, BX            \
	SHLQ $ESH, DX            \
	MOVQ AX, R12             \
	SUBQ CX, R12             \
	SUBQ AX, R10             \
	IMULQ $(2*VB), CX        \
	IMULQ $(2*VB), AX        \
	LEAQ (DI)(AX*1), SI      \
	ADDQ CX, DI              \
	XORQ AX, AX              \
	TESTQ R10, R10           \
	JLE  lanedone            \
lanecol:                     \
	VLOAD(0(SI), V0)         \
	VLOAD(VB(SI), V1)        \
	MOVQ R8, R9              \
	MOVQ DI, R13             \
	MOVQ R12, CX             \
	TESTQ CX, CX             \
	JZ   lanefin             \
laneloop:                    \
	LBCAST((R9), V10)        \
	LMUL(0(R13), V10, V11)   \
	LSUB(V11, V0)            \
	LMUL(VB(R13), V10, V12)  \
	LSUB(V12, V1)            \
	ADDQ DX, R9              \
	ADDQ $(2*VB), R13        \
	DECQ CX                  \
	JNZ  laneloop            \
lanefin:                     \
	CMPQ R11, $const_laneScale \
	JLT  lanediv             \
	JEQ  lanescale           \
	VSTORE(V0, 0(SI))        \
	VSTORE(V1, VB(SI))       \
	SLOAD((R9), X10)         \
	VZERO(V11)               \
	SUCOM X11, X10           \
	JLS  lanedone            \
	SSQRT(X10)               \
	JMP  laneinv             \
lanescale:                   \
	SLOAD((R9), X10)         \
laneinv:                     \
	SRECIP(X10, X11)         \
	RBCAST(X11, V11)         \
	LSCALE(V11, V0)          \
	LSCALE(V11, V1)          \
	VSTORE(V0, 0(SI))        \
	VSTORE(V1, VB(SI))       \
	CMPQ R11, $const_lanePivot \
	JNE  lanenext            \
	SSTORE(X10, (R9))        \
	JMP  lanenext            \
lanediv:                     \
	LBCAST((R9), V10)        \
	LDIV(V10, V0)            \
	LDIV(V10, V1)            \
	VSTORE(V0, 0(SI))        \
	VSTORE(V1, VB(SI))       \
lanenext:                    \
	ADDQ $(2*VB), SI         \
	ADDQ BX, R8              \
	INCQ R12                 \
	INCQ AX                  \
	CMPQ AX, R10             \
	JLT  lanecol             \
lanedone:

DATA one64<>+0(SB)/8, $0x3ff0000000000000
GLOBL one64<>(SB), RODATA|NOPTR, $8
DATA one32<>+0(SB)/4, $0x3f800000
GLOBL one32<>(SB), RODATA|NOPTR, $4
DATA zero64<>+0(SB)/8, $0
GLOBL zero64<>(SB), RODATA|NOPTR, $8

// ---- SSE2: 2 float64 lanes, legacy encoding (the amd64 baseline) ----

#define V0 X0
#define V1 X1
#define V2 X2
#define V3 X3
#define V4 X4
#define V5 X5
#define V6 X6
#define V7 X7
#define V8 X8
#define V9 X9
#define V10 X10
#define V11 X11
#define V12 X12
#define VB 16
#define VZERO(r) XORPS r, r
#define VLOAD(m, r) MOVUPD m, r
#define VSTORE(r, m) MOVUPD r, m
#define KRET RET

#define ESH 3
#define LBCAST(m, r) MOVSD m, r; UNPCKLPD r, r
#define LMUL(m, b, t) MOVUPD m, t; MULPD b, t
#define LADD(t, r) ADDPD t, r
#define LSUB(t, r) SUBPD t, r
#define LDIV(d, r) DIVPD d, r
#define LSCALE(s, r) MULPD s, r
#define RBCAST(x, r) UNPCKLPD r, r
#define SLOAD(m, x) MOVSD m, x
#define SSTORE(x, m) MOVSD x, m
#define SSQRT(x) SQRTSD x, x
#define SRECIP(d, x) MOVSD one64<>(SB), x; DIVSD d, x
#define SUCOM UCOMISD

// func dotKernSSE2(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int)
TEXT ·dotKernSSE2(SB), NOSPLIT, $0-112
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	LEAQ alpha+64(FP), R13
	LEAQ beta+72(FP), R14
	MOVQ c_base+80(FP), DI
	MOVQ ldc+104(FP), DX
	DOT_BODY

// func subKernSSE2(k int, a []float64, lda int, bp []float64, c []float64, ldc int)
TEXT ·subKernSSE2(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	SUB_BODY

// func lanesKernSSE2(x, a []float64, l0, j0, j1, rs, cs, mode int) int
TEXT ·lanesKernSSE2(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ l0+48(FP), CX
	MOVQ j0+56(FP), AX
	MOVQ j1+64(FP), R10
	MOVQ rs+72(FP), BX
	MOVQ cs+80(FP), DX
	MOVQ mode+88(FP), R11
	LANE_BODY
	MOVQ AX, ret+96(FP)
	KRET

#undef ESH
#undef LBCAST
#undef LMUL
#undef LADD
#undef LSUB
#undef LDIV
#undef LSCALE
#undef RBCAST
#undef SLOAD
#undef SSTORE
#undef SSQRT
#undef SRECIP
#undef SUCOM
#define ESH 2
#define LBCAST(m, r) MOVSS m, r; SHUFPS $0, r, r
#define LMUL(m, b, t) MOVUPS m, t; MULPS b, t
#define LADD(t, r) ADDPS t, r
#define LSUB(t, r) SUBPS t, r
#define LDIV(d, r) DIVPS d, r
#define LSCALE(s, r) MULPS s, r
#define RBCAST(x, r) SHUFPS $0, r, r
#define SLOAD(m, x) MOVSS m, x
#define SSTORE(x, m) MOVSS x, m
#define SSQRT(x) SQRTSS x, x
#define SRECIP(d, x) MOVSS one32<>(SB), x; DIVSS d, x
#define SUCOM UCOMISS

// func dotKern32SSE2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·dotKern32SSE2(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	LEAQ one32<>(SB), R13
	LEAQ zero64<>(SB), R14
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	DOT_BODY

// func subKern32SSE2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·subKern32SSE2(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	SUB_BODY

// func lanesKern32SSE2(x, a []float32, l0, j0, j1, rs, cs, mode int) int
TEXT ·lanesKern32SSE2(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ l0+48(FP), CX
	MOVQ j0+56(FP), AX
	MOVQ j1+64(FP), R10
	MOVQ rs+72(FP), BX
	MOVQ cs+80(FP), DX
	MOVQ mode+88(FP), R11
	LANE_BODY
	MOVQ AX, ret+96(FP)
	KRET

#undef ESH
#undef LBCAST
#undef LMUL
#undef LADD
#undef LSUB
#undef LDIV
#undef LSCALE
#undef RBCAST
#undef SLOAD
#undef SSTORE
#undef SSQRT
#undef SRECIP
#undef SUCOM
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
#undef VB
#undef VZERO
#undef VLOAD
#undef VSTORE
#undef KRET

// ---- AVX2 and AVX-512: three-operand VEX / EVEX forms, shared ----

#define VLOAD(m, r) VMOVUPD m, r
#define VSTORE(r, m) VMOVUPD r, m
#define KRET VZEROUPPER; RET

// ---- AVX2: 4 float64 lanes ----

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
#define VB 32
#define VZERO(r) VXORPD r, r, r

#define ESH 3
#define LBCAST(m, r) VBROADCASTSD m, r
#define LMUL(m, b, t) VMULPD m, b, t
#define LADD(t, r) VADDPD t, r, r
#define LSUB(t, r) VSUBPD t, r, r
#define LDIV(d, r) VDIVPD d, r, r
#define LSCALE(s, r) VMULPD s, r, r
#define RBCAST(x, r) VBROADCASTSD x, r
#define SLOAD(m, x) VMOVSD m, x
#define SSTORE(x, m) VMOVSD x, m
#define SSQRT(x) VSQRTSD x, x, x
#define SRECIP(d, x) VMOVSD one64<>(SB), x; VDIVSD d, x, x
#define SUCOM VUCOMISD

// func dotKernAVX2(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int)
TEXT ·dotKernAVX2(SB), NOSPLIT, $0-112
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	LEAQ alpha+64(FP), R13
	LEAQ beta+72(FP), R14
	MOVQ c_base+80(FP), DI
	MOVQ ldc+104(FP), DX
	DOT_BODY

// func subKernAVX2(k int, a []float64, lda int, bp []float64, c []float64, ldc int)
TEXT ·subKernAVX2(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	SUB_BODY

// func lanesKernAVX2(x, a []float64, l0, j0, j1, rs, cs, mode int) int
TEXT ·lanesKernAVX2(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ l0+48(FP), CX
	MOVQ j0+56(FP), AX
	MOVQ j1+64(FP), R10
	MOVQ rs+72(FP), BX
	MOVQ cs+80(FP), DX
	MOVQ mode+88(FP), R11
	LANE_BODY
	MOVQ AX, ret+96(FP)
	KRET

#undef ESH
#undef LBCAST
#undef LMUL
#undef LADD
#undef LSUB
#undef LDIV
#undef LSCALE
#undef RBCAST
#undef SLOAD
#undef SSTORE
#undef SSQRT
#undef SRECIP
#undef SUCOM
#define ESH 2
#define LBCAST(m, r) VBROADCASTSS m, r
#define LMUL(m, b, t) VMULPS m, b, t
#define LADD(t, r) VADDPS t, r, r
#define LSUB(t, r) VSUBPS t, r, r
#define LDIV(d, r) VDIVPS d, r, r
#define LSCALE(s, r) VMULPS s, r, r
#define RBCAST(x, r) VBROADCASTSS x, r
#define SLOAD(m, x) VMOVSS m, x
#define SSTORE(x, m) VMOVSS x, m
#define SSQRT(x) VSQRTSS x, x, x
#define SRECIP(d, x) VMOVSS one32<>(SB), x; VDIVSS d, x, x
#define SUCOM VUCOMISS

// func dotKern32AVX2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·dotKern32AVX2(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	LEAQ one32<>(SB), R13
	LEAQ zero64<>(SB), R14
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	DOT_BODY

// func subKern32AVX2(k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·subKern32AVX2(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	SUB_BODY

// func lanesKern32AVX2(x, a []float32, l0, j0, j1, rs, cs, mode int) int
TEXT ·lanesKern32AVX2(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ l0+48(FP), CX
	MOVQ j0+56(FP), AX
	MOVQ j1+64(FP), R10
	MOVQ rs+72(FP), BX
	MOVQ cs+80(FP), DX
	MOVQ mode+88(FP), R11
	LANE_BODY
	MOVQ AX, ret+96(FP)
	KRET

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
#undef VB
#undef VZERO

// ---- AVX-512F: 8 float64 lanes ----

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
#define VB 64
#define VZERO(r) VPXORQ r, r, r

// func dotKern32AVX512(k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·dotKern32AVX512(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	LEAQ one32<>(SB), R13
	LEAQ zero64<>(SB), R14
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	DOT_BODY

// func subKern32AVX512(k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·subKern32AVX512(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	SUB_BODY

// func lanesKern32AVX512(x, a []float32, l0, j0, j1, rs, cs, mode int) int
TEXT ·lanesKern32AVX512(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ l0+48(FP), CX
	MOVQ j0+56(FP), AX
	MOVQ j1+64(FP), R10
	MOVQ rs+72(FP), BX
	MOVQ cs+80(FP), DX
	MOVQ mode+88(FP), R11
	LANE_BODY
	MOVQ AX, ret+96(FP)
	KRET

#undef ESH
#undef LBCAST
#undef LMUL
#undef LADD
#undef LSUB
#undef LDIV
#undef LSCALE
#undef RBCAST
#undef SLOAD
#undef SSTORE
#undef SSQRT
#undef SRECIP
#undef SUCOM
#define ESH 3
#define LBCAST(m, r) VBROADCASTSD m, r
#define LMUL(m, b, t) VMULPD m, b, t
#define LADD(t, r) VADDPD t, r, r
#define LSUB(t, r) VSUBPD t, r, r
#define LDIV(d, r) VDIVPD d, r, r
#define LSCALE(s, r) VMULPD s, r, r
#define RBCAST(x, r) VBROADCASTSD x, r
#define SLOAD(m, x) VMOVSD m, x
#define SSTORE(x, m) VMOVSD x, m
#define SSQRT(x) VSQRTSD x, x, x
#define SRECIP(d, x) VMOVSD one64<>(SB), x; VDIVSD d, x, x
#define SUCOM VUCOMISD

// func dotKernAVX512(k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int)
TEXT ·dotKernAVX512(SB), NOSPLIT, $0-112
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	LEAQ alpha+64(FP), R13
	LEAQ beta+72(FP), R14
	MOVQ c_base+80(FP), DI
	MOVQ ldc+104(FP), DX
	DOT_BODY

// func subKernAVX512(k int, a []float64, lda int, bp []float64, c []float64, ldc int)
TEXT ·subKernAVX512(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), BX
	MOVQ bp_base+40(FP), SI
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), DX
	SUB_BODY

// func lanesKernAVX512(x, a []float64, l0, j0, j1, rs, cs, mode int) int
TEXT ·lanesKernAVX512(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ a_base+24(FP), R8
	MOVQ l0+48(FP), CX
	MOVQ j0+56(FP), AX
	MOVQ j1+64(FP), R10
	MOVQ rs+72(FP), BX
	MOVQ cs+80(FP), DX
	MOVQ mode+88(FP), R11
	LANE_BODY
	MOVQ AX, ret+96(FP)
	KRET

// func dotNT4x8f16(k int, a, b8 []float32, s *[32]float32)
//
// The pure-FP16 kernel (AVX + F16C): Y0..Y3 accumulate a 4×8 block, lane jj
// of Yr one output element held as the float32 image of a binary16 value.
// Per l and row: the product in binary32 (VMULPS), rounded to binary16 and
// widened back (VCVTPS2PH $0 = round to nearest even, VCVTPH2PS), added to
// the accumulator (VADDPS), and the same round trip on the sum — the two
// fp16.QuantF32 of the Go kernel, on eight lanes. The conversions produce
// and accept binary16 subnormals whatever MXCSR.FTZ/DAZ say; the multiply
// and the add obey them, as the scalar ones in the Go kernel do.
#define ROW16(m, t, h, acc, hacc) \
	VBROADCASTSS m, t        \
	VMULPS Y4, t, t          \
	VCVTPS2PH $0, t, h       \
	VCVTPH2PS h, t           \
	VADDPS t, acc, acc       \
	VCVTPS2PH $0, acc, hacc  \
	VCVTPH2PS hacc, acc

TEXT ·dotNT4x8f16(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ b8_base+32(FP), SI
	MOVQ s+56(FP), DI
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

loop16:
	VMOVUPS (SI), Y4
	ROW16((R8), Y5, X5, Y0, X0)
	ROW16((R9), Y6, X6, Y1, X1)
	ROW16((R10), Y7, X7, Y2, X2)
	ROW16((R11), Y8, X8, Y3, X3)
	ADDQ $32, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JNZ  loop16

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func transposeSSE2(rows, cols int, src []float64, lds int, dst []float64, ldd int)
//
// dst[c·ldd+r] = src[r·lds+c], two rows at a time: a 2×2 block is two
// loads, UNPCKLPD/UNPCKHPD, and two stores. An odd last column or row goes
// element by element. SI and R8/R9 walk the source rows, DI and R10 the
// destination; CX, DX are the strides in bytes.
TEXT ·transposeSSE2(SB), NOSPLIT, $0-80
	MOVQ rows+0(FP), AX
	MOVQ cols+8(FP), BX
	MOVQ src_base+16(FP), SI
	MOVQ lds+40(FP), CX
	MOVQ dst_base+48(FP), DI
	MOVQ ldd+72(FP), DX
	SHLQ $3, CX
	SHLQ $3, DX
	SUBQ $2, AX
	JL   tlast

tpair:
	MOVQ SI, R8
	LEAQ (SI)(CX*1), R9
	MOVQ DI, R10
	MOVQ BX, R12
	SUBQ $2, R12
	JL   tpaircol

tpairloop:
	MOVUPD (R8), X0
	MOVUPD (R9), X1
	MOVAPD X0, X2
	UNPCKLPD X1, X0
	UNPCKHPD X1, X2
	MOVUPD X0, (R10)
	MOVUPD X2, (R10)(DX*1)
	ADDQ $16, R8
	ADDQ $16, R9
	LEAQ (R10)(DX*2), R10
	SUBQ $2, R12
	JGE  tpairloop

tpaircol:
	CMPQ R12, $-1
	JNE  tpairnext
	MOVSD (R8), X0
	MOVSD (R9), X1
	UNPCKLPD X1, X0
	MOVUPD X0, (R10)

tpairnext:
	LEAQ (SI)(CX*2), SI
	ADDQ $16, DI
	SUBQ $2, AX
	JGE  tpair

tlast:
	CMPQ AX, $-1
	JNE  tdone
	MOVQ BX, R12

tlastloop:
	MOVSD (SI), X0
	MOVSD X0, (DI)
	ADDQ $8, SI
	ADDQ DX, DI
	DECQ R12
	JNZ  tlastloop

tdone:
	RET

// func getMXCSR() uint32
TEXT ·getMXCSR(SB), NOSPLIT, $0-4
	STMXCSR ret+0(FP)
	RET

// func setMXCSR(v uint32)
TEXT ·setMXCSR(SB), NOSPLIT, $0-4
	LDMXCSR v+0(FP)
	RET
