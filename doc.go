// Package geompc reproduces "Reducing Data Motion and Energy Consumption
// of Geospatial Modeling Applications Using Automated Precision Conversion"
// (Cao et al., IEEE CLUSTER 2023) as a pure-Go library: an adaptive
// mixed-precision tile Cholesky factorization for Gaussian maximum
// log-likelihood estimation, executed by a PaRSEC-like task runtime over
// calibrated simulations of Nvidia V100/A100/H100 GPUs, with the paper's
// automated sender/receiver precision-conversion strategy (STC/TTC).
//
// The user-facing API lives in internal/core; the runnable entry points are
// the geompc binary (cmd/geompc, one subcommand per table or figure) and
// examples/. The benchmarks in bench_test.go regenerate every table and
// figure of the paper's evaluation at laptop scale; the geompc subcommands
// regenerate them at full scale.
package geompc
