// Package hostcpu reads once, at init, which vector extensions the
// processor implements and the operating system saves the registers of. It
// is the module's one reader of CPUID, for linalg's micro-kernels, geo's
// covariance lanes and bessel's K_ν lanes. Off amd64 every feature is false
// and Lanes is 0.
package hostcpu

// Lanes is the number of float64 lanes of the widest vector the host runs:
// 8 with AVX-512F (opmask and ZMM state saved) and AVX2, which every
// AVX-512F processor has; 4 with AVX2 (YMM state saved); 2 (SSE2, the amd64
// baseline) without; 0 off amd64. linalg runs at it; geo and bessel add
// conditions of their own.
var Lanes int

// FMA and F16C are those extensions, with YMM state saved.
var FMA, F16C bool
