// Command geompclint is the repo's multichecker: it runs the
// internal/analysis suite — lockcheck (lock hygiene), hotalloc
// (allocation-free hot paths, transitively), deterflow (nondeterminism in
// or reaching the deterministic packages) and precflow (unaudited precision
// lowerings and the call chains reaching them) — over the packages matching
// the given patterns and exits nonzero on any diagnostic, including misused
// //geompc:nolint directives.
//
// Usage:
//
//	go run ./cmd/geompclint ./...          # lint the whole module
//	go run ./cmd/geompclint -list          # describe the analyzers
//	go run ./cmd/geompclint -json ./...    # machine-readable findings
//	go run ./cmd/geompclint -suppressions ./...  # //geompc:nolint inventory
//	go run ./cmd/geompclint ./internal/runtime/ ./internal/obs/
//
// `make lint` and the CI lint job run the ./... form; a clean exit is part
// of the build contract. The CI job also uploads the -json report as a
// build artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"geompc/internal/analysis"
	"geompc/internal/analysis/deterflow"
	"geompc/internal/analysis/hotalloc"
	"geompc/internal/analysis/lockcheck"
	"geompc/internal/analysis/precflow"
)

// analyzers is the registered suite, in reporting-name order.
var analyzers = []*analysis.Analyzer{
	deterflow.Analyzer,
	hotalloc.Analyzer,
	lockcheck.Analyzer,
	precflow.Analyzer,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "geompclint:", err)
		os.Exit(1)
	}
}

// jsonDiag is the -json rendering of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the full -json document: findings plus the suppression
// inventory, so one artifact captures both what fired and what was audited
// away.
type jsonReport struct {
	Packages     int                    `json:"packages"`
	Findings     []jsonDiag             `json:"findings"`
	Suppressions []analysis.Suppression `json:"suppressions"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompclint", flag.ContinueOnError)
	fs.SetOutput(out)
	dir := fs.String("dir", ".", "module `directory` to lint from")
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings and suppressions as JSON (exit status still reflects findings)")
	suppressions := fs.Bool("suppressions", false, "list //geompc:nolint directives with their audit reasons instead of findings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(out, "%-14s %s\n", analysis.NolintAnalyzerName,
			"reports misused //geompc:nolint directives (unknown analyzer, missing reason, expired)")
		return nil
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.LoadProgram(*dir, patterns...)
	if err != nil {
		return err
	}
	diags := analysis.RunProgram(prog, analyzers)

	if *suppressions {
		return printSuppressions(out, prog, *asJSON)
	}
	if *asJSON {
		report := jsonReport{
			Packages:     len(prog.Roots),
			Findings:     []jsonDiag{},
			Suppressions: prog.Suppressions(),
		}
		if report.Suppressions == nil {
			report.Suppressions = []analysis.Suppression{}
		}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
		if len(diags) > 0 {
			return fmt.Errorf("%d issue(s) in %d package(s)", len(diags), len(prog.Roots))
		}
		return nil
	}

	for _, d := range diags {
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		return fmt.Errorf("%d issue(s) in %d package(s)", len(diags), len(prog.Roots))
	}
	fmt.Fprintf(out, "geompclint: %d package(s) clean\n", len(prog.Roots))
	return nil
}

// printSuppressions renders the //geompc:nolint inventory: every reasoned
// directive, which analyzer it silences, and whether it was exercised by
// the run that just completed.
func printSuppressions(out io.Writer, prog *analysis.Program, asJSON bool) error {
	sups := prog.Suppressions()
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(sups)
	}
	active := 0
	for _, s := range sups {
		state := "EXPIRED"
		if s.Active {
			state = "active"
			active++
		}
		fmt.Fprintf(out, "%s:%d: %-12s %-8s %s\n", s.File, s.Line, s.Analyzer, state, s.Reason)
	}
	fmt.Fprintf(out, "geompclint: %d suppression(s), %d active\n", len(sups), active)
	return nil
}
