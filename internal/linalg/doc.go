// Package linalg implements the dense numerical kernels of the tile
// Cholesky factorization — POTRF, TRSM, SYRK and GEMM — in native float64
// and float32 arithmetic and in software-emulated GPU formats (TF32,
// BF16_32, FP16_32, FP16).
//
// All matrices are dense row-major with an explicit leading dimension (row
// stride), and triangular/symmetric kernels operate on the lower triangle,
// matching the lower-variant tile Cholesky of Algorithm 1:
//
//	POTRF:  A[k][k] = chol(A[k][k])
//	TRSM:   A[m][k] = A[m][k] · A[k][k]^{-T}
//	SYRK:   A[m][m] -= A[m][k] · A[m][k]^T
//	GEMM:   A[m][n] -= A[m][k] · A[n][k]^T
//
// Emulated formats store data in float64 slices whose values have been
// quantized through the format's input representation (see internal/prec);
// accumulation happens in genuine float32 (TF32/BF16_32/FP16_32) or in
// binary16 with per-operation rounding (FP16), so the numerical error of a
// kernel matches what the corresponding tensor-core kernel would commit.
//
// Micro-kernels (DESIGN.md §3.3). The FP64 kernels run on one shape — four
// A rows × two vectors of packed B columns, k innermost, one accumulator
// lane per output element, separate multiply and add — at the host's vector
// width (SSE2, AVX2 or AVX-512 on amd64, picked at init; portable Go
// elsewhere), with two entry points: dot64 (GEMM, SYRK) and the
// fused-subtract sub64 (TRSM, POTRF). Every width gives the bits of the
// naive triple loop, so results do not depend on it and it is not a
// setting. The float32-accumulate GEMMs use a 4×4 SSE2 kernel.
//
// Underflow contract of the binary32 carrier: inside every float32-accumulate
// kernel (the FP32/TF32/BF16_32/FP16_32/FP16 GEMMs, TrsmRLT32, the FP32 SYRK,
// PotrfLower32) a binary32-subnormal operand reads as zero and a
// binary32-subnormal result flushes to zero — a perturbation of at most
// 2⁻¹²⁶ per operation, on tiles of a matrix with an O(1) diagonal. The
// float64 kernels keep IEEE gradual underflow. On amd64 the contract is
// enforced (and the ~150-cycle microcode assist each subnormal SSE operation
// costs is avoided) by a scoped MXCSR region, see enterFlush32; other
// architectures run their native gradual underflow, which differs only on
// runs that reach binary32 subnormals.
package linalg
