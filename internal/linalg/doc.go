// Package linalg implements the dense numerical kernels of the tile
// Cholesky factorization: POTRF and SYRK in float64 (they update the
// diagonal tiles, which stay in FP64), TRSM in float64 and float32, and GEMM
// in float64, float32 and the software-emulated GPU formats (TF32, BF16_32,
// FP16_32, FP16).
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
// Micro-kernels (DESIGN.md §3.3). Every GEMM and the SYRK run one block loop
// over four A rows × two vectors of packed B columns, one accumulator lane
// per output element, separate multiply and add: in float64 (dot64), in
// float32 with twice the columns (dot32: FP32, TF32, BF16_32, FP16_32), or
// the same binary32 shape rounding to binary16 after every operation
// (FP16). The A side is padded to whole groups of four rows, so no element
// runs outside a micro-kernel. TRSM (both precisions) and POTRF put
// independent rows in lanes, the products with finished columns through the
// same shape (sub) and the in-block recurrence in the lane kernel. The
// conversions into binary32 and binary16, the float32 and binary16 combines
// with C and the lane transposes are vector row kernels. All run at the
// host's vector width (SSE2, AVX2 or AVX-512 on amd64, picked at init;
// portable Go elsewhere) with the scalar loops' bits, so the width is not a
// setting.
//
// Underflow contract of the binary32 carrier: inside every float32-accumulate
// kernel (the FP32/TF32/BF16_32/FP16_32/FP16 GEMMs and TrsmRLT32) a
// binary32-subnormal operand reads as zero and a binary32-subnormal result
// flushes to zero — a perturbation of at most 2⁻¹²⁶ per operation, on tiles
// of a matrix with an O(1) diagonal. The
// float64 kernels keep IEEE gradual underflow. On amd64 the contract is
// enforced (and the ~150-cycle microcode assist each subnormal SSE operation
// costs is avoided) by a scoped MXCSR region, see enterFlush32; other
// architectures run their native gradual underflow, which differs only on
// runs that reach binary32 subnormals.
package linalg
