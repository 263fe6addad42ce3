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
// SSE2 (4×4 and 4×8), AVX2 (4×8 and 4×16) and AVX-512 (4×16 and 4×32).
// DOT_BODY is instantiated once more per width on binary32 lanes for the
// pure-FP16 kernel, its LMUL and LADD followed by VRT. The width macros
// move bits and do not care about the element type:
//
//	V0..V12      vector registers of the width (X, Y or Z)
//	VB           bytes per vector
//	VZERO(r)     r = 0
//	VLOAD(m, r)  r = [m]        VSTORE(r, m)  [m] = r
//	KRET         return (VZEROUPPER first on the VEX/EVEX widths)
//	VRT(r)       round the binary32 lanes of r to binary16 and back (F16C)
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
// The binary32 and binary16 bodies take alpha = 1 and beta = 0 from
// read-only data: they store the bare sums, and COMB_BODY combines them.
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

// The row kernels: conversion and combine, one vector of VL float64 lanes
// at a time — the float64 vector V and its binary32 half H (the low half of
// X at SSE2, X at AVX2, Y at AVX-512) — and the last n mod VL elements once
// more under a tail mask, so no element runs outside a vector. Every element
// takes the scalar Go loop's operations in its order: CVTPD2PS and CVTPS2PD
// round and flag as CVTSD2SS and CVTSS2SD do under the caller's MXCSR, and
// HRT, a VCVTPS2PH $0 / VCVTPH2PS round trip, is fp16.QuantF32 (NaN
// payloads aside). The width section defines, beside V*, VB and KRET:
//
//	VL              float64 lanes per vector
//	H0..H3          the binary32 halves of V0..V3
//	HLOAD, HSTORE   move a half      NARROW(v, h), WIDEN(h, v)  convert
//	HMUL(s, h)      h = h·s          HADD(s, h)  h = h + s     HBCAST(m, h)
//	MSET(r)         the tail mask of r < VL elements (at SSE2, r is 1)
//	MLOAD64, MSTORE64, MLOADH, MSTOREH  the masked moves; MLOADH and
//	                MSTOREH take H0 only

// CVT_LOOP converts AX rows of BX elements, stride CX bytes, from SI to DI
// (stride DX bytes): U one vector from (R8) to (R9), T the masked tail.
// DSTEP is the bytes a vector's output takes.
#define CVT_LOOP(row, unit, tail, next, U, T, DSTEP) \
row:                         \
	MOVQ SI, R8              \
	MOVQ DI, R9              \
	MOVQ BX, R10             \
	SUBQ $VL, R10            \
	JL   tail                \
unit:                        \
	U                        \
	ADDQ $VB, R8             \
	ADDQ $DSTEP, R9          \
	SUBQ $VL, R10            \
	JGE  unit                \
tail:                        \
	ADDQ $VL, R10            \
	JZ   next                \
	T                        \
next:                        \
	ADDQ CX, SI              \
	ADDQ DX, DI              \
	DECQ AX                  \
	JNZ  row                 \
	KRET

// CVT_N(LD, ST, RT) narrows one vector to binary32 (RT rounds on to
// binary16, or is empty); CVT_R rounds it and widens it back to float64.
#define CVT_N(LD, ST, RT) LD(0(R8), V0); NARROW(V0, H0); RT(H0); ST(H0, 0(R9))
#define CVT_R(LD, ST, RT) LD(0(R8), V0); NARROW(V0, H0); RT(H0); WIDEN(H0, V0); ST(V0, 0(R9))
// HRT(h) rounds the binary32 half h to binary16 and back (F16C, at every
// width); NORT is no rounding.
#define NORT(h)
#define HRT(h) VCVTPS2PH $0, h, X15; VCVTPH2PS X15, h
#define CVT_N32 CVT_N(VLOAD, HSTORE, NORT)
#define CVT_N32T CVT_N(MLOAD64, MSTOREH, NORT)
#define CVT_N16 CVT_N(VLOAD, HSTORE, HRT)
#define CVT_N16T CVT_N(MLOAD64, MSTOREH, HRT)
#define CVT_R32 CVT_R(VLOAD, VSTORE, NORT)
#define CVT_R32T CVT_R(MLOAD64, MSTORE64, NORT)
#define CVT_R16 CVT_R(VLOAD, VSTORE, HRT)
#define CVT_R16T CVT_R(MLOAD64, MSTORE64, HRT)

// CVT_BODY: dst = src rounded to binary32 — R11 bit 0 (wide): widened back
// to float64, bit 1 (h16): rounded on to binary16 — for rows, cols ≥ 1. CX
// is lds in elements, DX ldd.
#define CVT_BODY \
	SHLQ $3, CX              \
	MOVQ BX, R10             \
	ANDQ $(VL-1), R10        \
	MSET(R10)                \
	TESTQ $1, R11            \
	JNZ  cvtround            \
	SHLQ $2, DX              \
	TESTQ $2, R11            \
	JNZ  cvtn16              \
	CVT_LOOP(n32row, n32unit, n32tail, n32next, CVT_N32, CVT_N32T, (VB/2)) \
cvtn16:                      \
	CVT_LOOP(n16row, n16unit, n16tail, n16next, CVT_N16, CVT_N16T, (VB/2)) \
cvtround:                    \
	SHLQ $3, DX              \
	TESTQ $2, R11            \
	JNZ  cvtr16              \
	CVT_LOOP(r32row, r32unit, r32tail, r32next, CVT_R32, CVT_R32T, VB) \
cvtr16:                      \
	CVT_LOOP(r16row, r16unit, r16tail, r16next, CVT_R16, CVT_R16T, VB)

// COMB(LH, L64, S64, RT) combines one vector of bare binary32 sums s (R9)
// into C (R8), c = alpha⊗s ⊕ beta⊗c with alpha in H2 and beta in H3: RT
// after every operation and on the converted c (binary16), or never
// (binary32). COMB0 is the beta = 0 form, which does not read C.
#define COMB(LH, L64, S64, RT) LH(0(R9), H0); HMUL(H2, H0); RT(H0); L64(0(R8), V1); NARROW(V1, H1); RT(H1); HMUL(H3, H1); RT(H1); HADD(H1, H0); RT(H0); WIDEN(H0, V0); S64(V0, 0(R8))
#define COMB0(LH, S64, RT) LH(0(R9), H0); HMUL(H2, H0); RT(H0); WIDEN(H0, V0); S64(V0, 0(R8))
#define COMB_32 COMB(HLOAD, VLOAD, VSTORE, NORT)
#define COMB_32T COMB(MLOADH, MLOAD64, MSTORE64, NORT)
#define COMB_16 COMB(HLOAD, VLOAD, VSTORE, HRT)
#define COMB_16T COMB(MLOADH, MLOAD64, MSTORE64, HRT)
#define COMB0_32 COMB0(HLOAD, VSTORE, NORT)
#define COMB0_32T COMB0(MLOADH, MSTORE64, NORT)
#define COMB0_16 COMB0(HLOAD, VSTORE, HRT)
#define COMB0_16T COMB0(MLOADH, MSTORE64, HRT)

// COMB_LOOP runs U over the R10 elements of the row, then T on the tail.
#define COMB_LOOP(unit, tail, done, U, T) \
	SUBQ $VL, R10            \
	JL   tail                \
unit:                        \
	U                        \
	ADDQ $VB, R8             \
	ADDQ $(VB/2), R9         \
	SUBQ $VL, R10            \
	JGE  unit                \
tail:                        \
	ADDQ $VL, R10            \
	JZ   done                \
	MSET(R10)                \
	T                        \
done:                        \
	KRET

// COMB_BODY: R11 bit 0 (readC) reads C (beta ≠ 0), bit 1 (h16) is binary16.
#define COMB_BODY \
	TESTQ $2, R11            \
	JNZ  comb16              \
	TESTQ $1, R11            \
	JZ   comb032             \
	COMB_LOOP(c32unit, c32tail, c32done, COMB_32, COMB_32T) \
comb032:                     \
	COMB_LOOP(z32unit, z32tail, z32done, COMB0_32, COMB0_32T) \
comb16:                      \
	TESTQ $1, R11            \
	JZ   comb016             \
	COMB_LOOP(c16unit, c16tail, c16done, COMB_16, COMB_16T) \
comb016:                     \
	COMB_LOOP(z16unit, z16tail, z16done, COMB0_16, COMB0_16T)

DATA tailmask<>+0(SB)/4, $-1
DATA tailmask<>+4(SB)/4, $-1
DATA tailmask<>+8(SB)/4, $-1
DATA tailmask<>+12(SB)/4, $-1
DATA tailmask<>+16(SB)/4, $0
DATA tailmask<>+20(SB)/4, $0
DATA tailmask<>+24(SB)/4, $0
DATA tailmask<>+28(SB)/4, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $32

DATA one64<>+0(SB)/8, $0x3ff0000000000000
GLOBL one64<>(SB), RODATA|NOPTR, $8
DATA one32<>+0(SB)/4, $0x3f800000
GLOBL one32<>(SB), RODATA|NOPTR, $4
DATA zero64<>+0(SB)/8, $0
GLOBL zero64<>(SB), RODATA|NOPTR, $8

// ---- The entry points ----
//
// One TEXT per kernel, declared once in kernel_amd64.go with the vector
// width w as its first argument. It loads every argument from its own frame
// into the registers its body expects — so asmdecl checks each frame
// reference — and jumps to the body of width w: the file-local TEXTs of the
// width sections below (dotKernAVX2<> …), which return to the entry's
// caller. Any w other than 4 or 8 takes the SSE2 body, the amd64 baseline.
// The lane kernels' bodies store their result through R14; the combine's
// read alpha and beta through R12 and R13.

// func dotKern(w width, k int, a []float64, lda int, bp []float64, alpha, beta float64, c []float64, ldc int)
TEXT ·dotKern(SB), NOSPLIT, $0-120
	MOVQ k+8(FP), CX
	MOVQ a_base+16(FP), R8
	MOVQ lda+40(FP), BX
	MOVQ bp_base+48(FP), SI
	LEAQ alpha+72(FP), R13
	LEAQ beta+80(FP), R14
	MOVQ c_base+88(FP), DI
	MOVQ ldc+112(FP), DX
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  dotKernSSE2<>(SB)
w8:
	JMP  dotKernAVX512<>(SB)
w4:
	JMP  dotKernAVX2<>(SB)

// func dotKern32(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·dotKern32(SB), NOSPLIT, $0-104
	MOVQ k+8(FP), CX
	MOVQ a_base+16(FP), R8
	MOVQ lda+40(FP), BX
	MOVQ bp_base+48(FP), SI
	LEAQ one32<>(SB), R13
	LEAQ zero64<>(SB), R14
	MOVQ c_base+72(FP), DI
	MOVQ ldc+96(FP), DX
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  dotKern32SSE2<>(SB)
w8:
	JMP  dotKern32AVX512<>(SB)
w4:
	JMP  dotKern32AVX2<>(SB)

// func dotKern16(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·dotKern16(SB), NOSPLIT, $0-104
	MOVQ k+8(FP), CX
	MOVQ a_base+16(FP), R8
	MOVQ lda+40(FP), BX
	MOVQ bp_base+48(FP), SI
	LEAQ one32<>(SB), R13
	LEAQ zero64<>(SB), R14
	MOVQ c_base+72(FP), DI
	MOVQ ldc+96(FP), DX
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  dotKern16SSE2<>(SB)
w8:
	JMP  dotKern16AVX512<>(SB)
w4:
	JMP  dotKern16AVX2<>(SB)

// func subKern(w width, k int, a []float64, lda int, bp []float64, c []float64, ldc int)
TEXT ·subKern(SB), NOSPLIT, $0-104
	MOVQ k+8(FP), CX
	MOVQ a_base+16(FP), R8
	MOVQ lda+40(FP), BX
	MOVQ bp_base+48(FP), SI
	MOVQ c_base+72(FP), DI
	MOVQ ldc+96(FP), DX
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  subKernSSE2<>(SB)
w8:
	JMP  subKernAVX512<>(SB)
w4:
	JMP  subKernAVX2<>(SB)

// func subKern32(w width, k int, a []float32, lda int, bp []float32, c []float32, ldc int)
TEXT ·subKern32(SB), NOSPLIT, $0-104
	MOVQ k+8(FP), CX
	MOVQ a_base+16(FP), R8
	MOVQ lda+40(FP), BX
	MOVQ bp_base+48(FP), SI
	MOVQ c_base+72(FP), DI
	MOVQ ldc+96(FP), DX
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  subKern32SSE2<>(SB)
w8:
	JMP  subKern32AVX512<>(SB)
w4:
	JMP  subKern32AVX2<>(SB)

// func lanesKern(w width, x, a []float64, l0, j0, j1, rs, cs, mode int) int
TEXT ·lanesKern(SB), NOSPLIT, $0-112
	MOVQ x_base+8(FP), DI
	MOVQ a_base+32(FP), R8
	MOVQ l0+56(FP), CX
	MOVQ j0+64(FP), AX
	MOVQ j1+72(FP), R10
	MOVQ rs+80(FP), BX
	MOVQ cs+88(FP), DX
	MOVQ mode+96(FP), R11
	LEAQ ret+104(FP), R14
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  lanesKernSSE2<>(SB)
w8:
	JMP  lanesKernAVX512<>(SB)
w4:
	JMP  lanesKernAVX2<>(SB)

// func lanesKern32(w width, x, a []float32, l0, j0, j1, rs, cs, mode int) int
TEXT ·lanesKern32(SB), NOSPLIT, $0-112
	MOVQ x_base+8(FP), DI
	MOVQ a_base+32(FP), R8
	MOVQ l0+56(FP), CX
	MOVQ j0+64(FP), AX
	MOVQ j1+72(FP), R10
	MOVQ rs+80(FP), BX
	MOVQ cs+88(FP), DX
	MOVQ mode+96(FP), R11
	LEAQ ret+104(FP), R14
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  lanesKern32SSE2<>(SB)
w8:
	JMP  lanesKern32AVX512<>(SB)
w4:
	JMP  lanesKern32AVX2<>(SB)

// func cvtKern(w width, rows, cols int, src []float64, lds int, dst unsafe.Pointer, ldd int, wide, h16 bool)
TEXT ·cvtKern(SB), NOSPLIT, $0-74
	MOVQ rows+8(FP), AX
	MOVQ cols+16(FP), BX
	MOVQ src_base+24(FP), SI
	MOVQ lds+48(FP), CX
	MOVQ dst+56(FP), DI
	MOVQ ldd+64(FP), DX
	MOVBQZX wide+72(FP), R11
	MOVBQZX h16+73(FP), R12
	LEAQ (R11)(R12*2), R11
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  cvtKernSSE2<>(SB)
w8:
	JMP  cvtKernAVX512<>(SB)
w4:
	JMP  cvtKernAVX2<>(SB)

// func combKern(w width, c []float64, s []float32, al, be float32, readC, h16 bool)
TEXT ·combKern(SB), NOSPLIT, $0-66
	MOVQ c_base+8(FP), R8
	MOVQ s_base+32(FP), R9
	MOVQ s_len+40(FP), R10
	MOVBQZX readC+64(FP), R11
	MOVBQZX h16+65(FP), R12
	LEAQ (R11)(R12*2), R11
	LEAQ al+56(FP), R12
	LEAQ be+60(FP), R13
	CMPQ w+0(FP), $8
	JEQ  w8
	CMPQ w+0(FP), $4
	JEQ  w4
	JMP  combKernSSE2<>(SB)
w8:
	JMP  combKernAVX512<>(SB)
w4:
	JMP  combKernAVX2<>(SB)

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
#define VL 2
#define H0 X0
#define H1 X1
#define H2 X2
#define H3 X3
#define HLOAD(m, h) MOVSD m, h
#define HSTORE(h, m) MOVSD h, m
#define NARROW(v, h) CVTPD2PS v, h
#define WIDEN(h, v) CVTPS2PD h, v
#define HMUL(s, h) MULPS s, h
#define HADD(s, h) ADDPS s, h
#define HBCAST(m, h) MOVSS m, h; SHUFPS $0, h, h
#define VRT(r) VCVTPS2PH $0, r, X13; VCVTPH2PS X13, r
#define MSET(r)
#define MLOAD64(m, v) MOVSD m, v
#define MSTORE64(v, m) MOVSD v, m
#define MLOADH(m, h) MOVSS m, h
#define MSTOREH(h, m) MOVSS h, m

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

TEXT dotKernSSE2<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT subKernSSE2<>(SB), NOSPLIT, $0
	SUB_BODY

TEXT lanesKernSSE2<>(SB), NOSPLIT, $0
	LANE_BODY
	MOVQ AX, (R14)
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

TEXT dotKern32SSE2<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT subKern32SSE2<>(SB), NOSPLIT, $0
	SUB_BODY

TEXT lanesKern32SSE2<>(SB), NOSPLIT, $0
	LANE_BODY
	MOVQ AX, (R14)
	KRET

// The pure-FP16 kernel: DOT_BODY on binary32 lanes with VRT, a binary16
// round trip (F16C), after every multiply and every add.
#undef LMUL
#undef LADD
#define LMUL(m, b, t) MOVUPS m, t; MULPS b, t; VRT(t)
#define LADD(t, r) ADDPS t, r; VRT(r)

TEXT dotKern16SSE2<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT cvtKernSSE2<>(SB), NOSPLIT, $0
	CVT_BODY

TEXT combKernSSE2<>(SB), NOSPLIT, $0
	HBCAST((R12), H2)
	HBCAST((R13), H3)
	COMB_BODY

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
#undef VL
#undef H0
#undef H1
#undef H2
#undef H3
#undef HLOAD
#undef HSTORE
#undef NARROW
#undef WIDEN
#undef HMUL
#undef HADD
#undef HBCAST
#undef VRT
#undef MSET
#undef MLOAD64
#undef MSTORE64
#undef MLOADH
#undef MSTOREH

// ---- AVX2 and AVX-512: three-operand VEX / EVEX forms, shared ----

#define VLOAD(m, r) VMOVUPD m, r
#define VSTORE(r, m) VMOVUPD r, m
#define KRET VZEROUPPER; RET
#define HLOAD(m, h) VMOVUPS m, h
#define HSTORE(h, m) VMOVUPS h, m
#define WIDEN(h, v) VCVTPS2PD h, v
#define HMUL(s, h) VMULPS s, h, h
#define HADD(s, h) VADDPS s, h, h
#define HBCAST(m, h) VBROADCASTSS m, h

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
#define VL 4
#define H0 X0
#define H1 X1
#define H2 X2
#define H3 X3
#define NARROW(v, h) VCVTPD2PSY v, h
#define VRT(r) VCVTPS2PH $0, r, X13; VCVTPH2PS X13, r
#define MSET(r) MOVQ $4, R12; SUBQ r, R12; LEAQ tailmask<>(SB), R13; VMOVDQU (R13)(R12*4), X13; VPMOVSXDQ X13, Y14
#define MLOAD64(m, v) VMASKMOVPD m, Y14, v
#define MSTORE64(v, m) VMASKMOVPD v, Y14, m
#define MLOADH(m, h) VMASKMOVPS m, X13, h
#define MSTOREH(h, m) VMASKMOVPS h, X13, m

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

TEXT dotKernAVX2<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT subKernAVX2<>(SB), NOSPLIT, $0
	SUB_BODY

TEXT lanesKernAVX2<>(SB), NOSPLIT, $0
	LANE_BODY
	MOVQ AX, (R14)
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

TEXT dotKern32AVX2<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT subKern32AVX2<>(SB), NOSPLIT, $0
	SUB_BODY

TEXT lanesKern32AVX2<>(SB), NOSPLIT, $0
	LANE_BODY
	MOVQ AX, (R14)
	KRET

// The pure-FP16 kernel: DOT_BODY on binary32 lanes with VRT, a binary16
// round trip (F16C), after every multiply and every add.
#undef LMUL
#undef LADD
#define LMUL(m, b, t) VMULPS m, b, t; VRT(t)
#define LADD(t, r) VADDPS t, r, r; VRT(r)

TEXT dotKern16AVX2<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT cvtKernAVX2<>(SB), NOSPLIT, $0
	CVT_BODY

TEXT combKernAVX2<>(SB), NOSPLIT, $0
	HBCAST((R12), H2)
	HBCAST((R13), H3)
	COMB_BODY

#undef LMUL
#undef LADD
#define LMUL(m, b, t) VMULPS m, b, t
#define LADD(t, r) VADDPS t, r, r

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
#undef VL
#undef H0
#undef H1
#undef H2
#undef H3
#undef NARROW
#undef VRT
#undef MSET
#undef MLOAD64
#undef MSTORE64
#undef MLOADH
#undef MSTOREH

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
#define VL 8
#define H0 Y0
#define H1 Y1
#define H2 Y2
#define H3 Y3
#define NARROW(v, h) VCVTPD2PS v, h
#define VRT(r) VCVTPS2PH $0, r, Y13; VCVTPH2PS Y13, r
#define MSET(r) XORL R12, R12; BTSL r, R12; DECL R12; KMOVW R12, K1
#define MLOAD64(m, v) VMOVUPD.Z m, K1, v
#define MSTORE64(v, m) VMOVUPD v, K1, m
#define MLOADH(m, h) VMOVUPS.Z m, K1, Z0
#define MSTOREH(h, m) VMOVUPS Z0, K1, m

TEXT dotKern32AVX512<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT subKern32AVX512<>(SB), NOSPLIT, $0
	SUB_BODY

TEXT lanesKern32AVX512<>(SB), NOSPLIT, $0
	LANE_BODY
	MOVQ AX, (R14)
	KRET

// The pure-FP16 kernel: DOT_BODY on binary32 lanes with VRT, a binary16
// round trip (F16C), after every multiply and every add.
#undef LMUL
#undef LADD
#define LMUL(m, b, t) VMULPS m, b, t; VRT(t)
#define LADD(t, r) VADDPS t, r, r; VRT(r)

TEXT dotKern16AVX512<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT cvtKernAVX512<>(SB), NOSPLIT, $0
	CVT_BODY

TEXT combKernAVX512<>(SB), NOSPLIT, $0
	HBCAST((R12), H2)
	HBCAST((R13), H3)
	COMB_BODY

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

TEXT dotKernAVX512<>(SB), NOSPLIT, $0
	DOT_BODY

TEXT subKernAVX512<>(SB), NOSPLIT, $0
	SUB_BODY

TEXT lanesKernAVX512<>(SB), NOSPLIT, $0
	LANE_BODY
	MOVQ AX, (R14)
	KRET

// T32 is the float32 transpose behind transpose32SSE2: dst[c·ldd + r] =
// src[r·lds + c] (CX, DX the strides in bytes) for a rows×cols block, bands
// of four rows in 4×4 blocks (four row loads, UNPCKLPS/UNPCKHPS and
// MOVLHPS/MOVHLPS, four column stores), the last cols mod 4 columns of a
// band and the last rows mod 4 rows element by element. LDROW/STCOL move
// four elements, LDE/STE one, converting on the way; S1 and D1 are the
// source and destination element sizes, D2, D3 two and three of them.
#define T32(band, block, bcols, bcol, bnext, lrows, lrow, lcol, done, LDROW, STCOL, LDE, STE, S1, D1, D2, D3) \
	SUBQ $4, AX              \
	JL   lrows               \
band:                        \
	MOVQ SI, R8              \
	MOVQ DI, R10             \
	MOVQ BX, R12             \
	SUBQ $4, R12             \
	JL   bcols               \
block:                       \
	LEAQ (R8)(CX*1), R9      \
	LEAQ (R8)(CX*2), R13     \
	LEAQ (R9)(CX*2), R14     \
	LDROW(R8, X0)            \
	LDROW(R9, X1)            \
	LDROW(R13, X2)           \
	LDROW(R14, X3)           \
	MOVAPS X0, X4            \
	UNPCKLPS X1, X0          \
	UNPCKHPS X1, X4          \
	MOVAPS X2, X5            \
	UNPCKLPS X3, X2          \
	UNPCKHPS X3, X5          \
	MOVAPS X0, X1            \
	MOVLHPS X2, X0           \
	MOVHLPS X1, X2           \
	MOVAPS X4, X3            \
	MOVLHPS X5, X4           \
	MOVHLPS X3, X5           \
	LEAQ (R10)(DX*1), R9     \
	LEAQ (R10)(DX*2), R13    \
	LEAQ (R9)(DX*2), R14     \
	STCOL(X0, R10)           \
	STCOL(X2, R9)            \
	STCOL(X4, R13)           \
	STCOL(X5, R14)           \
	ADDQ $(4*S1), R8         \
	LEAQ (R10)(DX*4), R10    \
	SUBQ $4, R12             \
	JGE  block               \
bcols:                       \
	ADDQ $4, R12             \
	JZ   bnext               \
bcol:                        \
	LEAQ (R8)(CX*1), R9      \
	LEAQ (R8)(CX*2), R13     \
	LEAQ (R9)(CX*2), R14     \
	LDE(R8, X0)              \
	STE(X0, 0, R10)          \
	LDE(R9, X0)              \
	STE(X0, D1, R10)         \
	LDE(R13, X0)             \
	STE(X0, D2, R10)         \
	LDE(R14, X0)             \
	STE(X0, D3, R10)         \
	ADDQ $S1, R8             \
	ADDQ DX, R10             \
	DECQ R12                 \
	JNZ  bcol                \
bnext:                       \
	LEAQ (SI)(CX*4), SI      \
	ADDQ $(4*D1), DI         \
	SUBQ $4, AX              \
	JGE  band                \
lrows:                       \
	ADDQ $4, AX              \
	JZ   done                \
lrow:                        \
	MOVQ SI, R8              \
	MOVQ DI, R10             \
	MOVQ BX, R12             \
lcol:                        \
	LDE(R8, X0)              \
	STE(X0, 0, R10)          \
	ADDQ $S1, R8             \
	ADDQ DX, R10             \
	DECQ R12                 \
	JNZ  lcol                \
	ADDQ CX, SI              \
	ADDQ $D1, DI             \
	DECQ AX                  \
	JNZ  lrow                \
done:                        \
	RET

#define T_LDROW32(b, r) MOVUPS (b), r
#define T_LDROW64(b, r) MOVUPD (b), r; MOVUPD 16(b), X8; CVTPD2PS r, r; CVTPD2PS X8, X8; MOVLHPS X8, r
#define T_STCOL32(r, b) MOVUPS r, (b)
#define T_STCOL64(r, b) CVTPS2PD r, X8; MOVHLPS r, r; CVTPS2PD r, X9; MOVUPD X8, (b); MOVUPD X9, 16(b)
#define T_LDE32(b, r) MOVSS (b), r
#define T_LDE64(b, r) MOVSD (b), r; CVTSD2SS r, r
#define T_STE32(r, o, b) MOVSS r, o(b)
#define T_STE64(r, o, b) CVTSS2SD r, r; MOVSD r, o(b)

// func transpose32SSE2(rows, cols int, src unsafe.Pointer, lds int, dst unsafe.Pointer, ldd int, narrow, widen bool)
//
// The binary32 transpose of the lane layouts (T32), SSE2 at every width but
// Go's: from float32, from float64 narrowed on the way in (narrow: the
// packing of TrsmRLT32's lanes) or to float64 widened on the way out
// (widen: their unpacking). rows, cols ≥ 1.
TEXT ·transpose32SSE2(SB), NOSPLIT, $0-50
	MOVQ rows+0(FP), AX
	MOVQ cols+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), CX
	MOVQ dst+32(FP), DI
	MOVQ ldd+40(FP), DX
	CMPB narrow+48(FP), $0
	JNE  tnarrow
	CMPB widen+49(FP), $0
	JNE  twiden
	SHLQ $2, CX
	SHLQ $2, DX
	T32(sband, sblock, sbcols, sbcol, sbnext, slrows, slrow, slcol, sdone, T_LDROW32, T_STCOL32, T_LDE32, T_STE32, 4, 4, 8, 12)

tnarrow:
	SHLQ $3, CX
	SHLQ $2, DX
	T32(nband, nblock, nbcols, nbcol, nbnext, nlrows, nlrow, nlcol, ndone, T_LDROW64, T_STCOL32, T_LDE64, T_STE32, 8, 4, 8, 12)

twiden:
	SHLQ $2, CX
	SHLQ $3, DX
	T32(wband, wblock, wbcols, wbcol, wbnext, wlrows, wlrow, wlcol, wdone, T_LDROW32, T_STCOL64, T_LDE32, T_STE64, 4, 8, 16, 24)

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
