// Package cliflags centralizes the flags the geompc subcommands share —
// scheduling policy and broadcast topology — so trace, convbench and scale
// register identical spellings and help text.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"geompc/internal/bench"
	"geompc/internal/sweep"
)

// Values holds the parsed flag values. Read only after the flag set has
// been parsed.
type Values struct {
	// Sched and Bcast are the -sched / -bcast names (sched.ByName and
	// comm.TopologyByName spellings; empty = engine default).
	Sched string
	Bcast string
}

// Register installs -sched and -bcast on fs and returns the holder their
// parsed values land in.
func Register(fs *flag.FlagSet) *Values {
	v := &Values{}
	fs.StringVar(&v.Sched, "sched", "", "scheduling policy: fifo (default), locality, cp")
	fs.StringVar(&v.Bcast, "bcast", "", "broadcast topology: binomial (default), flat, chain")
	return v
}

// SchedOpts assembles the bench-level sweep options from the parsed
// policy and topology names; its Config method resolves them into a run
// config. The sweep runs one pool worker per GOMAXPROCS, like every
// command's: output is bit-identical at every width, so that standard
// variable is the only thing that sizes (or, for memory, caps) a sweep.
func (v *Values) SchedOpts() bench.SchedOpts {
	return bench.SchedOpts{Policy: v.Sched, Bcast: v.Bcast, SweepOpts: bench.SweepOpts{Workers: sweep.PerCore}}
}

// ParseSizes parses a comma-separated list of positive integers — the
// shared grammar of the -sizes and -nodes flags.
func ParseSizes(s string) ([]int, error) {
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
