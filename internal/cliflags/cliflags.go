// Package cliflags centralizes the flag groups the geompc subcommands
// share — scheduling policy and broadcast topology, the compiled-plan
// cache toggle and the parallel-sweep worker count — so trace, convbench,
// scale and ablation register identical spellings and
// help text, and the state those flags switch on (the shared plan cache,
// the sweep throughput summary) is wired in one place.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"geompc/internal/bench"
	"geompc/internal/plan"
	"geompc/internal/sweep"
)

// Set selects which flag groups Register installs; or the groups together.
type Set uint

const (
	// Sched registers -sched and -bcast.
	Sched Set = 1 << iota
	// PlanCache registers -plan-cache.
	PlanCache
	// Workers registers -workers.
	Workers
)

// Values holds the parsed values of the registered groups; fields of
// unregistered groups stay at their zero value. Read only after the flag
// set has been parsed.
type Values struct {
	// Sched and Bcast are the -sched / -bcast names (sched.ByName and
	// comm.TopologyByName spellings; empty = engine default).
	Sched string
	Bcast string
	// PlanCache is the -plan-cache toggle.
	PlanCache bool
	// Workers is the -workers count: 0 = serial, n > 0 = n-worker pool,
	// negative = GOMAXPROCS.
	Workers int

	cache   *plan.Cache   // the run's one plan cache, made on first use
	summary sweep.Summary // throughput report of the latest sweep
}

// Register installs the selected flag groups on fs and returns the holder
// their parsed values land in.
func Register(fs *flag.FlagSet, set Set) *Values {
	v := &Values{}
	if set&Sched != 0 {
		fs.StringVar(&v.Sched, "sched", "", "scheduling policy: fifo (default), locality, cp")
		fs.StringVar(&v.Bcast, "bcast", "", "broadcast topology: binomial (default), flat, chain")
	}
	if set&PlanCache != 0 {
		fs.BoolVar(&v.PlanCache, "plan-cache", false, "route runs through a compiled-plan cache and print the hit/miss/invalidation counters")
	}
	if set&Workers != 0 {
		fs.IntVar(&v.Workers, "workers", 0, "parallel sweep workers: 0 = serial, -1 = one per core; results are bit-identical at any setting")
	}
	return v
}

// SchedOpts assembles the bench-level sweep options from the parsed
// values (policy and topology names, the plan cache, the worker count);
// its Config method resolves them into a run config.
func (v *Values) SchedOpts() bench.SchedOpts {
	return bench.SchedOpts{Policy: v.Sched, Bcast: v.Bcast, Cache: v.Cache(), SweepOpts: v.SweepOpts()}
}

// SweepOpts returns just the sweep-execution knobs; every sweep run with
// them records its throughput for WriteSummary.
func (v *Values) SweepOpts() bench.SweepOpts {
	return bench.SweepOpts{Workers: v.Workers, Summary: &v.summary}
}

// Cache returns the compiled-plan cache -plan-cache asks for — one per
// parsed flag set, so every solve and sweep of the command shares it — or
// nil without the flag.
func (v *Values) Cache() *plan.Cache {
	if v.PlanCache && v.cache == nil {
		v.cache = plan.NewCache(nil)
	}
	return v.cache
}

// WriteSummary prints lead and the throughput line of the latest sweep run
// through SweepOpts; serial runs (-workers 0) print nothing.
func (v *Values) WriteSummary(out io.Writer, lead string) {
	if v.Workers != 0 {
		fmt.Fprintf(out, "%s%s\n", lead, v.summary)
	}
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
