package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"geompc/internal/bench"
)

// runAccuracy reproduces the Monte-Carlo parameter-estimation study of
// §VII-B: Fig 5 (2D squared-exponential and Matérn panels with weak/strong
// correlation and rough/smooth fields) and Fig 6 (3D squared-exponential),
// comparing estimates at several mixed-precision accuracy levels against
// exact FP64 computation.
//
// The paper runs 100 replicas of 40,000 locations; the defaults here are
// scaled to laptop budgets (the estimator-consistency shape is visible at
// small n) and can be raised with -replicas/-n.
//
//	geompc accuracy -dim 2              # Fig 5
//	geompc accuracy -dim 3              # Fig 6
//	geompc accuracy -dim 2 -replicas 100 -n 1600
func runAccuracy(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("geompc accuracy", flag.ContinueOnError)
	dim := fs.Int("dim", 2, "spatial dimension: 2 (Fig 5) or 3 (Fig 6)")
	replicas := fs.Int("replicas", 20, "Monte-Carlo replicas per case (paper: 100)")
	n := fs.Int("n", 400, "locations per replica (paper: 40,000)")
	ts := fs.Int("ts", 64, "tile size")
	levelsFlag := fs.String("levels", "0,1e-9,1e-4,1e-2", "accuracy levels u_req (0 = exact FP64)")
	seed := fs.Uint64("seed", 7, "RNG seed")
	caseFilter := fs.String("case", "", "run only the named case (substring match)")
	maxEvals := fs.Int("maxevals", 0, "cap optimizer evaluations per fit (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var levels []float64
	for _, p := range strings.Split(*levelsFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return fmt.Errorf("bad level %q", p)
		}
		levels = append(levels, v)
	}

	var cases []bench.AccuracyCase
	switch *dim {
	case 2:
		cases = bench.Fig5Cases()
	case 3:
		cases = bench.Fig6Cases()
	default:
		return fmt.Errorf("-dim must be 2 or 3")
	}

	for _, c := range cases {
		if *caseFilter != "" && !strings.Contains(c.Name, *caseFilter) {
			continue
		}
		res, err := bench.AccuracyStudyEvals(c, levels, *replicas, *n, *ts, *seed, *maxEvals)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		t := bench.NewTable(
			fmt.Sprintf("%s (truth %v, %d replicas of n=%d)", c.Name, c.TrueTheta, *replicas, *n),
			"u_req", "param", "truth", "median", "mean", "q1", "q3", "whisk-lo", "whisk-hi", "failed")
		for _, r := range res {
			s := r.Summary
			t.Add(ureqLabel(r.UReq), r.Param, r.Truth, s.Median, s.Mean, s.Q1, s.Q3, s.WhiskerLo, s.WhiskerHi, r.Failed)
		}
		t.Write(out)
	}
	return nil
}
