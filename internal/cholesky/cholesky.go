package cholesky

import (
	"errors"
	"fmt"
	"io"

	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// Result reports a completed factorization.
type Result struct {
	Stats runtime.Stats
	// STCTasks/CommTasks count communication-issuing tasks using
	// sender-side conversion vs the total (Algorithm 2's decision).
	STCTasks, CommTasks int
	// Err is the numeric failure (a non-SPD pivot: the first POTRF that
	// met one — every later panel descends from it and was skipped), nil on
	// success or in phantom mode.
	Err error
	// Maps are the precision maps the run charged (Config.Maps, or their
	// TTC copy under ForceTTC).
	Maps *precmap.Maps

	ids ids // decodes the task ids of Stats.Trace into names
}

// newResult wraps one finished run of g: its record and numeric failure.
func newResult(g *graph, stats runtime.Stats, err error) *Result {
	r := &Result{Stats: stats, Err: err, Maps: g.maps, ids: g.ids}
	r.STCTasks, r.CommTasks = g.maps.STCCount()
	return r
}

// Digest returns the run's schedule digest (see runtime.Stats.ScheduleDigest).
func (r *Result) Digest() uint64 { return r.Stats.ScheduleDigest }

// WriteChromeTrace renders the run's timeline as Chrome trace-event JSON,
// kernel spans labeled in the paper's task notation. An untraced run has
// no timeline and returns an error.
func (r *Result) WriteChromeTrace(w io.Writer) error {
	return runtime.WriteChromeTrace(w, r.Stats, r.TaskName)
}

// TaskName labels task id of the run (a runtime.ScheduledTask.ID) in the
// paper's notation: POTRF(k), TRSM(m,k), SYRK(m,k) or GEMM(m,n,k).
func (r *Result) TaskName(id int) string { return r.ids.name(id) }

// Run executes the adaptive mixed-precision tile Cholesky described by cfg
// live and returns its simulated statistics (and, in numeric mode, leaves
// the factor L in cfg.Matrix's lower tiles).
func Run(cfg Config) (*Result, error) {
	g, err := newGraph(cfg)
	if err != nil {
		return nil, err
	}
	stats, bodyErr, err := runtime.Run(cfg.Platform, g, cfg.Options)
	g.releaseOperands()
	if err != nil {
		return nil, err
	}
	return newResult(g, stats, bodyErr), nil
}

// RunPhantom is the one phantom factorization (no Matrix): an n×n matrix
// of ts-sized tiles laid over cfg.Platform's squarest process grid, under
// the kernel map km builds for that tiling, from which precmap.New derives
// the storage map and Algorithm 2's comm map. cfg carries everything but
// Desc and Maps.
func RunPhantom(cfg Config, n, ts int, km func(tile.Desc) [][]prec.Precision) (*Result, error) {
	if cfg.Platform == nil {
		return nil, errNilPlatform
	}
	pg, qg := tile.SquarestGrid(cfg.Platform.Ranks)
	desc, err := tile.NewDesc(n, ts, pg, qg)
	if err != nil {
		return nil, err
	}
	cfg.Desc, cfg.Maps = desc, precmap.New(km(desc), 0)
	return Run(cfg)
}

var errNilPlatform = errors.New("cholesky: nil platform")

// newGraph validates cfg and builds the PTG task graph of one
// factorization. It is the one place the strategy is applied (ForceTTC
// runs Maps.TTC()) and a numeric run is checked (see validate), and it
// rounds a numeric matrix to the storage map, so the bodies read every tile
// in the storage precision the engine charges (§V: FP16-family tiles are
// generated in FP32).
func newGraph(cfg Config) (*graph, error) {
	if cfg.Platform == nil {
		return nil, errNilPlatform
	}
	if cfg.Maps == nil {
		return nil, fmt.Errorf("cholesky: nil precision maps")
	}
	if cfg.Desc.NT > maxNT {
		return nil, fmt.Errorf("cholesky: %d tile rows exceed the task table's %d", cfg.Desc.NT, maxNT)
	}
	maps := cfg.Maps
	if cfg.Strategy == ForceTTC {
		maps = maps.TTC()
	}
	g := &graph{
		ids:      newIDs(cfg.Desc.NT),
		desc:     cfg.Desc,
		maps:     maps,
		plat:     cfg.Platform,
		mat:      cfg.Matrix,
		rankSeen: make([]int64, cfg.Platform.Ranks),
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	g.tiles = newTileCosts(g.desc, maps)
	if g.mat != nil {
		g.mat.SetStorage(func(i, j int) prec.Precision { return g.maps.Storage[i][j] })
		if cfg.Platform.NumDevices() > 1 {
			g.wire = make([][]float64, cfg.Desc.LowerTileCount())
		}
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
	case hw.KindPotrf:
		return fmt.Sprintf("%v(%d)", op, k)
	case hw.KindGemm:
		return fmt.Sprintf("%v(%d,%d,%d)", op, m, n, k)
	}
	return fmt.Sprintf("%v(%d,%d)", op, m, k)
}
