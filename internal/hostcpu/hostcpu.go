// Package hostcpu reads once, at init, which vector extensions the
// processor implements and the operating system saves the registers of. It
// is the module's one reader of CPUID, for linalg's FP64 and FP16
// micro-kernels and geo's Matérn lanes. Off amd64 every feature is false.
package hostcpu

// The host's extensions: AVX-512F with opmask and ZMM state saved, the
// others with YMM state saved.
var AVX2, AVX512F, FMA, F16C bool
