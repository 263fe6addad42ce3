// Command geompc is the one user-facing binary of the reproduction: every
// table and figure of the paper is a subcommand of it.
//
// Usage:
//
//	geompc <subcommand> [flags]
//	geompc help                  # the subcommand table
//	geompc <subcommand> -h       # one subcommand's flags
//
// Each subcommand's own file documents its flags and the figure it
// regenerates; `make experiments` lists the exact paper-scale invocations.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"geompc/internal/cholesky"
)

// command is one row of the dispatch table.
type command struct {
	name    string
	summary string
	run     func(args []string, out io.Writer) error
}

var commands = []command{
	{"fit", "generate a synthetic dataset and fit it by mixed-precision maximum likelihood", runFit},
	{"trace", "simulated execution timeline of a small mixed-precision Cholesky (Fig 3)", runTrace},
	{"convbench", "STC vs TTC precision conversion on one GPU or one node (Figs 8, 11)", runConvbench},
	{"scale", "weak/strong scalability and the MP effect on Summit (Fig 12)", runScale},
	{"power", "GPU occupancy and power/energy traces (Figs 9, 10)", runPower},
	{"precmap", "kernel, storage and communication precision maps (Figs 2, 4, 7)", runPrecmap},
	{"gemmbench", "GEMM accuracy, performance and tile-move times (Tables I-II, Fig 1)", runGemmbench},
	{"accuracy", "Monte-Carlo parameter-estimation study (Figs 5, 6)", runAccuracy},
	{"ablation", "design-choice ablations: banded maps, lookahead, scheduling", runAblation},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "geompc:", err)
		os.Exit(1)
	}
}

// run dispatches args[0] through the command table. There is no default
// subcommand: `help` prints the table, anything else that is not in it
// (including nothing at all) is an error that carries the table.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand\n%s", usage())
	}
	if args[0] == "help" {
		_, err := fmt.Fprintln(out, usage())
		return err
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:], out)
		}
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage())
}

func usage() string {
	var sb strings.Builder
	sb.WriteString("usage: geompc <subcommand> [flags]   (geompc <subcommand> -h lists the flags)")
	for _, c := range commands {
		fmt.Fprintf(&sb, "\n  %-10s %s", c.name, c.summary)
	}
	return sb.String()
}

// allIfNone turns every selector on when none was given: a subcommand run
// without a selector flag prints all of its families.
func allIfNone(selectors ...*bool) {
	for _, s := range selectors {
		if *s {
			return
		}
	}
	for _, s := range selectors {
		*s = true
	}
}

// parseSizes parses a comma-separated list of positive integers — the
// shared grammar of the -sizes, -nodes, -acc-sizes and -perf-sizes flags.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		val, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || val <= 0 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out = append(out, val)
	}
	return out, nil
}

// ureqLabel names an accuracy level in table rows: u_req 0 is exact FP64.
func ureqLabel(u float64) string {
	if u > 0 {
		return fmt.Sprintf("%.0e", u)
	}
	return "exact"
}

// writeChrome exports a live run's timeline as Chrome trace-event JSON.
func writeChrome(path string, res *cholesky.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
