package cholesky

import (
	"fmt"
	"io"
	"sort"

	"geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/runtime"
)

// Result reports a completed factorization.
type Result struct {
	Stats    runtime.Stats
	Strategy Strategy
	// STCTasks/CommTasks count communication-issuing tasks using
	// sender-side conversion vs the total (Algorithm 2's decision).
	STCTasks, CommTasks int
	// Err is the numeric failure (a non-SPD pivot: the first POTRF that
	// met one — every later panel descends from it and was skipped), nil on
	// success or in phantom mode.
	Err error

	// out holds the live engine, or the plan a cache served the run from
	// (see RunCached); nt decodes its task ids into names.
	out plan.Outcome
	nt  int
}

// newResult wraps one finished run under cfg.
func newResult(cfg Config, out plan.Outcome) *Result {
	r := &Result{Stats: out.Stats, Strategy: cfg.Strategy, Err: out.Err, out: out, nt: cfg.Desc.NT}
	if cfg.Strategy == ForceTTC {
		_, r.CommTasks = cfg.Maps.STCCount()
	} else {
		r.STCTasks, r.CommTasks = cfg.Maps.STCCount()
	}
	return r
}

// DeviceTrace exposes the busy/transfer interval traces of device i
// recorded during a Trace-enabled run. Plan-backed results carry no
// interval traces and return nil slices.
func (r *Result) DeviceTrace(i int) (busy, xfer []runtime.Interval) {
	if r.out.Engine == nil {
		return nil, nil
	}
	return r.out.Engine.DeviceTrace(i)
}

// Digest returns the run's schedule digest (see runtime.Stats.ScheduleDigest).
func (r *Result) Digest() uint64 { return r.Stats.ScheduleDigest }

// WriteChromeTrace renders the run's timeline as Chrome trace-event JSON,
// kernel spans labeled in the paper's task notation. Plan-backed results
// carry no interval traces and return an error.
func (r *Result) WriteChromeTrace(w io.Writer) error {
	if r.out.Engine == nil {
		return fmt.Errorf("cholesky: chrome traces need a live run (plan-backed result)")
	}
	return r.out.Engine.WriteChromeTrace(w, newIDs(r.nt).name)
}

// Run executes the adaptive mixed-precision tile Cholesky described by cfg
// live and returns its simulated statistics (and, in numeric mode, leaves
// the factor L in cfg.Matrix's lower tiles).
func Run(cfg Config) (*Result, error) { return RunCached(cfg, nil) }

// newGraph validates cfg and builds the PTG task graph of one
// factorization.
func newGraph(cfg Config) (*graph, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("cholesky: nil platform")
	}
	if cfg.Maps == nil {
		return nil, fmt.Errorf("cholesky: nil precision maps")
	}
	g := &graph{
		ids:      newIDs(cfg.Desc.NT),
		desc:     cfg.Desc,
		maps:     cfg.Maps,
		plat:     cfg.Platform,
		strat:    cfg.Strategy,
		mat:      cfg.Matrix,
		rankSeen: make([]int64, cfg.Platform.Ranks),
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	if g.mat != nil {
		g.wire = make([][]float64, cfg.Desc.LowerTileCount())
		g.ops = make([]operandSlot, cfg.Desc.LowerTileCount()*2*prec.Count)
	}
	return g, nil
}

// TheoreticalFlops returns the flop count of an N×N Cholesky, N³/3.
func TheoreticalFlops(n int) float64 {
	fn := float64(n)
	return fn * fn * fn / 3
}

// name renders a task id in the paper's notation: POTRF(k), TRSM(m,k),
// SYRK(m,k) or GEMM(m,n,k).
func (s ids) name(id int) string {
	op, m, n, k := s.decode(id)
	switch op {
	case opPotrf:
		return fmt.Sprintf("POTRF(%d)", k)
	case opTrsm:
		return fmt.Sprintf("TRSM(%d,%d)", m, k)
	case opSyrk:
		return fmt.Sprintf("SYRK(%d,%d)", m, k)
	default:
		return fmt.Sprintf("GEMM(%d,%d,%d)", m, n, k)
	}
}

// ScheduledTask is one labeled entry of a Trace-enabled run's timeline.
type ScheduledTask struct {
	Name       string
	Device     int
	Start, End float64
}

// Schedule returns the simulated task timeline of a Trace-enabled run,
// labeled in the paper's notation — the Fig 3 execution demonstration.
func (r *Result) Schedule() []ScheduledTask {
	raw := r.out.Schedule()
	s := newIDs(r.nt)
	out := make([]ScheduledTask, len(raw))
	for i, t := range raw {
		out[i] = ScheduledTask{
			Name:   s.name(t.ID),
			Device: t.Device,
			Start:  t.Start,
			End:    t.End,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
