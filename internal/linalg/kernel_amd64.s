//go:build amd64

#include "textflag.h"

// func dotNT4x2f64(k int, a0, a1, a2, a3, bp []float64, s *[8]float64)
//
// X4..X7 accumulate a 4×2 block: Xi = [s(i,0), s(i,1)]. Per iteration one
// MOVUPD pulls the interleaved pair [b0[l], b1[l]] and each A element is
// broadcast with UNPCKLPD — per-lane MULPD/ADDPD keep every accumulator's
// add sequence identical to the scalar kernel.
TEXT ·dotNT4x2f64(SB), NOSPLIT, $0-136
	MOVQ k+0(FP), CX
	MOVQ a0_base+8(FP), R8
	MOVQ a1_base+32(FP), R9
	MOVQ a2_base+56(FP), R10
	MOVQ a3_base+80(FP), R11
	MOVQ bp_base+104(FP), SI
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JZ   done64

loop64:
	MOVUPD (SI), X0

	MOVSD    (R8), X1
	UNPCKLPD X1, X1
	MULPD    X0, X1
	ADDPD    X1, X4

	MOVSD    (R9), X2
	UNPCKLPD X2, X2
	MULPD    X0, X2
	ADDPD    X2, X5

	MOVSD    (R10), X3
	UNPCKLPD X3, X3
	MULPD    X0, X3
	ADDPD    X3, X6

	MOVSD    (R11), X1
	UNPCKLPD X1, X1
	MULPD    X0, X1
	ADDPD    X1, X7

	ADDQ $16, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  loop64

done64:
	MOVQ   s+128(FP), DI
	MOVUPD X4, (DI)
	MOVUPD X5, 16(DI)
	MOVUPD X6, 32(DI)
	MOVUPD X7, 48(DI)
	RET

// func dotNT4x4f64(k int, a0, a1, a2, a3, bp0, bp1 []float64, s *[16]float64)
//
// X8..X15 accumulate a 4×4 block: X(8+2i) = [s(i,0), s(i,1)] from bp0,
// X(9+2i) = [s(i,2), s(i,3)] from bp1. Each A element broadcasts once and
// multiplies both B pairs.
TEXT ·dotNT4x4f64(SB), NOSPLIT, $0-160
	MOVQ k+0(FP), CX
	MOVQ a0_base+8(FP), R8
	MOVQ a1_base+32(FP), R9
	MOVQ a2_base+56(FP), R10
	MOVQ a3_base+80(FP), R11
	MOVQ bp0_base+104(FP), SI
	MOVQ bp1_base+128(FP), DX
	XORPS X8, X8
	XORPS X9, X9
	XORPS X10, X10
	XORPS X11, X11
	XORPS X12, X12
	XORPS X13, X13
	XORPS X14, X14
	XORPS X15, X15
	TESTQ CX, CX
	JZ   done64x4

loop64x4:
	MOVUPD (SI), X0
	MOVUPD (DX), X1

	MOVSD    (R8), X2
	UNPCKLPD X2, X2
	MOVAPD   X2, X3
	MULPD    X0, X2
	ADDPD    X2, X8
	MULPD    X1, X3
	ADDPD    X3, X9

	MOVSD    (R9), X4
	UNPCKLPD X4, X4
	MOVAPD   X4, X5
	MULPD    X0, X4
	ADDPD    X4, X10
	MULPD    X1, X5
	ADDPD    X5, X11

	MOVSD    (R10), X6
	UNPCKLPD X6, X6
	MOVAPD   X6, X7
	MULPD    X0, X6
	ADDPD    X6, X12
	MULPD    X1, X7
	ADDPD    X7, X13

	MOVSD    (R11), X2
	UNPCKLPD X2, X2
	MOVAPD   X2, X3
	MULPD    X0, X2
	ADDPD    X2, X14
	MULPD    X1, X3
	ADDPD    X3, X15

	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  loop64x4

done64x4:
	MOVQ   s+152(FP), DI
	MOVUPD X8, (DI)
	MOVUPD X9, 16(DI)
	MOVUPD X10, 32(DI)
	MOVUPD X11, 48(DI)
	MOVUPD X12, 64(DI)
	MOVUPD X13, 80(DI)
	MOVUPD X14, 96(DI)
	MOVUPD X15, 112(DI)
	RET

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

// func getMXCSR() uint32
TEXT ·getMXCSR(SB), NOSPLIT, $0-4
	STMXCSR ret+0(FP)
	RET

// func setMXCSR(v uint32)
TEXT ·setMXCSR(SB), NOSPLIT, $0-4
	LDMXCSR v+0(FP)
	RET
