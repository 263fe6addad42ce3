//go:build amd64

#include "textflag.h"

// The FP64 micro-kernel: four A rows × two vectors of B columns, k
// innermost. Lane jj of an accumulator is ONE output element, so every
// element sums its products in strictly increasing l with one rounding per
// multiply and one per add (no FMA) — the arithmetic of the naive triple
// loop at every vector width.
//
// One body per entry point, written against the width macros below and
// instantiated three times (SSE2 4×4, AVX2 4×8, AVX-512 4×16):
//
//	V0..V12      vector registers of the width (X, Y or Z)
//	VB           bytes per vector
//	VZERO(r)     r = 0
//	VLOAD(m, r)  r = [m]        VSTORE(r, m)  [m] = r
//	VBCAST(m, r) r = every lane [m]
//	VSCALE(s, r) r = r·s        VACC(t, r)    r = r + t
//	ROWADD(m, p, q)  p += [m]·V8, q += [m]·V9   (separate multiply and add)
//	ROWSUB(m, p, q)  p −= [m]·V8, q −= [m]·V9
//	KRET         return (VZEROUPPER first on the VEX/EVEX widths)
//
// Registers: CX k, then the running index −k..0; R8..R11 the four A rows
// (advanced by k so the index counts up to zero); SI the packed B block
// (two vectors per l); DI C; DX, BX the row strides of C and A in bytes;
// R12 the third row of C; R13, R14 the addresses of alpha and beta.

// KERN_ROWS turns the element strides into bytes and derives the row
// pointers.
#define KERN_ROWS \
	SHLQ $3, BX              \
	SHLQ $3, DX              \
	LEAQ (R8)(CX*8), R8      \
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

// DOT_BODY: s = Σ_l a[l]·b[l] from zero, then C = alpha·s + beta·C, or
// C = alpha·s without reading C when beta is ±0 (tested on the bits: a NaN
// beta takes the read-C path, as `beta == 0` in Go does).
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
	ROWADD((R8)(CX*8), V0, V1)  \
	ROWADD((R9)(CX*8), V2, V3)  \
	ROWADD((R10)(CX*8), V4, V5) \
	ROWADD((R11)(CX*8), V6, V7) \
	ADDQ $(2*VB), SI         \
	INCQ CX                  \
	JNZ  dotloop             \
dotscale:                    \
	VBCAST((R13), V10)       \
	VSCALE(V10, V0)          \
	VSCALE(V10, V1)          \
	VSCALE(V10, V2)          \
	VSCALE(V10, V3)          \
	VSCALE(V10, V4)          \
	VSCALE(V10, V5)          \
	VSCALE(V10, V6)          \
	VSCALE(V10, V7)          \
	MOVQ (R14), AX           \
	SHLQ $1, AX              \
	JZ   dotstore            \
	VBCAST((R14), V10)       \
	VLOAD(0(DI), V8)         \
	VLOAD(VB(DI), V9)        \
	VSCALE(V10, V8)          \
	VSCALE(V10, V9)          \
	VACC(V8, V0)             \
	VACC(V9, V1)             \
	VLOAD(0(DI)(DX*1), V8)   \
	VLOAD(VB(DI)(DX*1), V9)  \
	VSCALE(V10, V8)          \
	VSCALE(V10, V9)          \
	VACC(V8, V2)             \
	VACC(V9, V3)             \
	VLOAD(0(R12), V8)        \
	VLOAD(VB(R12), V9)       \
	VSCALE(V10, V8)          \
	VSCALE(V10, V9)          \
	VACC(V8, V4)             \
	VACC(V9, V5)             \
	VLOAD(0(R12)(DX*1), V8)  \
	VLOAD(VB(R12)(DX*1), V9) \
	VSCALE(V10, V8)          \
	VSCALE(V10, V9)          \
	VACC(V8, V6)             \
	VACC(V9, V7)             \
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
	ROWSUB((R8)(CX*8), V0, V1)  \
	ROWSUB((R9)(CX*8), V2, V3)  \
	ROWSUB((R10)(CX*8), V4, V5) \
	ROWSUB((R11)(CX*8), V6, V7) \
	ADDQ $(2*VB), SI         \
	INCQ CX                  \
	JNZ  subloop             \
substore:                    \
	KERN_STORE               \
	KRET

// ---- SSE2: 2 lanes, legacy encoding (the amd64 baseline) ----

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
#define VB 16
#define VZERO(r) XORPS r, r
#define VLOAD(m, r) MOVUPD m, r
#define VSTORE(r, m) MOVUPD r, m
#define VBCAST(m, r) MOVSD m, r; UNPCKLPD r, r
#define VSCALE(s, r) MULPD s, r
#define VACC(t, r) ADDPD t, r
#define ROWADD(m, p, q) \
	MOVSD m, V10     \
	UNPCKLPD V10, V10 \
	MOVAPD V10, V11  \
	MULPD V8, V10    \
	ADDPD V10, p     \
	MULPD V9, V11    \
	ADDPD V11, q
#define ROWSUB(m, p, q) \
	MOVSD m, V10     \
	UNPCKLPD V10, V10 \
	MOVAPD V10, V11  \
	MULPD V8, V10    \
	SUBPD V10, p     \
	MULPD V9, V11    \
	SUBPD V11, q
#define KRET RET

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
#undef VB
#undef VZERO
#undef VLOAD
#undef VSTORE
#undef VBCAST
#undef VSCALE
#undef VACC
#undef ROWADD
#undef ROWSUB
#undef KRET

// ---- AVX2 and AVX-512: three-operand VEX / EVEX forms, shared ----

#define VLOAD(m, r) VMOVUPD m, r
#define VSTORE(r, m) VMOVUPD r, m
#define VBCAST(m, r) VBROADCASTSD m, r
#define VSCALE(s, r) VMULPD s, r, r
#define VACC(t, r) VADDPD t, r, r
#define ROWADD(m, p, q) \
	VBROADCASTSD m, V10  \
	VMULPD V8, V10, V11  \
	VADDPD V11, p, p     \
	VMULPD V9, V10, V12  \
	VADDPD V12, q, q
#define ROWSUB(m, p, q) \
	VBROADCASTSD m, V10  \
	VMULPD V8, V10, V11  \
	VSUBPD V11, p, p     \
	VMULPD V9, V10, V12  \
	VSUBPD V12, q, q
#define KRET VZEROUPPER; RET

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
#define VB 32
#define VZERO(r) VXORPD r, r, r

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
#define VB 64
#define VZERO(r) VPXORQ r, r, r

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

// func dotNT4x4f32(k int, a0, a1, a2, a3, bq []float32, s *[16]float32)
//
// X4..X7 accumulate a 4×4 block: Xi = [s(i,0)..s(i,3)]. One MOVUPS pulls
// the interleaved quad [b0[l]..b3[l]]; A elements broadcast with SHUFPS.
TEXT ·dotNT4x4f32(SB), NOSPLIT, $0-136
	MOVQ k+0(FP), CX
	MOVQ a0_base+8(FP), R8
	MOVQ a1_base+32(FP), R9
	MOVQ a2_base+56(FP), R10
	MOVQ a3_base+80(FP), R11
	MOVQ bq_base+104(FP), SI
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JZ   done32

loop32:
	MOVUPS (SI), X0

	MOVSS  (R8), X1
	SHUFPS $0x00, X1, X1
	MULPS  X0, X1
	ADDPS  X1, X4

	MOVSS  (R9), X2
	SHUFPS $0x00, X2, X2
	MULPS  X0, X2
	ADDPS  X2, X5

	MOVSS  (R10), X3
	SHUFPS $0x00, X3, X3
	MULPS  X0, X3
	ADDPS  X3, X6

	MOVSS  (R11), X1
	SHUFPS $0x00, X1, X1
	MULPS  X0, X1
	ADDPS  X1, X7

	ADDQ $16, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JNZ  loop32

done32:
	MOVQ   s+128(FP), DI
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	MOVUPS X6, 32(DI)
	MOVUPS X7, 48(DI)
	RET

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

// func getMXCSR() uint32
TEXT ·getMXCSR(SB), NOSPLIT, $0-4
	STMXCSR ret+0(FP)
	RET

// func setMXCSR(v uint32)
TEXT ·setMXCSR(SB), NOSPLIT, $0-4
	LDMXCSR v+0(FP)
	RET
