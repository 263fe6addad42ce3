package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"

	"geompc/internal/bench"
	"geompc/internal/hw"
)

// runGemmbench regenerates the paper's GEMM-level results: Table I (peak
// performance per precision per GPU), Fig 1 (GEMM accuracy and performance
// across precisions on V100/A100/H100), and Table II (time to move a tile
// to a V100 and execute a GEMM on it, per precision).
//
//	geompc gemmbench -table1
//	geompc gemmbench -fig1 [-acc-sizes 64,128,256] [-perf-sizes 2048,8192,32768]
//	geompc gemmbench -table2
func runGemmbench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc gemmbench", flag.ContinueOnError)
	table1 := fs.Bool("table1", false, "print Table I (GPU peak performance)")
	table2 := fs.Bool("table2", false, "print Table II (tile move + GEMM times on V100)")
	fig1 := fs.Bool("fig1", false, "run Fig 1 (GEMM accuracy and performance)")
	accSizes := fs.String("acc-sizes", "64,128,256,512", "GEMM sizes for the accuracy study (real computation)")
	perfSizes := fs.String("perf-sizes", "2048,4096,8192,16384,32768", "GEMM sizes for the performance model")
	seed := fs.Uint64("seed", 42, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	allIfNone(table1, table2, fig1)

	if *table1 {
		bench.Table1().Write(out)
	}

	if *fig1 {
		sizes, err := parseSizes(*accSizes)
		if err != nil {
			return err
		}
		acc := bench.GemmAccuracy(sizes, *seed)
		t := bench.NewTable("Fig 1 (accuracy): relative Frobenius error vs FP64", "N", "Precision", "RelErr")
		for _, r := range acc {
			t.Add(r.N, r.Prec.String(), fmt.Sprintf("%.3e", r.Err))
		}
		t.Write(out)

		psizes, err := parseSizes(*perfSizes)
		if err != nil {
			return err
		}
		perf := bench.GemmPerformance([]*hw.GPUSpec{hw.V100, hw.A100, hw.H100}, psizes)
		tp := bench.NewTable("Fig 1 (performance): modeled GEMM throughput (conversion included)",
			"GPU", "N", "Precision", "Tflop/s", "%peak")
		for _, r := range perf {
			tp.Add(r.GPU, r.N, r.Prec.String(), r.Tflops, r.PeakPct)
		}
		tp.Write(out)
	}

	if *table2 {
		sizes := []int{2048, 4096, 6144, 8192, 10240}
		header := []string{"Matrix Size"}
		for _, n := range sizes {
			header = append(header, strconv.Itoa(n))
		}
		t := bench.NewTable("Table II: time measurement on V100 (milliseconds)", header...)
		for _, r := range bench.Table2(sizes) {
			cells := []any{r.Label}
			for _, v := range r.TimeMs {
				cells = append(cells, fmt.Sprintf("%.2f", v))
			}
			t.Add(cells...)
		}
		t.Write(out)
	}
	return nil
}
