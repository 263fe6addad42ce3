package bench

import (
	"fmt"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// AblationRow compares design choices on one factorization.
type AblationRow struct {
	Variant  string
	Tflops   float64
	Time     float64
	BytesH2D int64
	// FP64Share is the fraction of tiles kept in FP64 (precision-spend).
	FP64Share float64
}

// AdaptiveVsBanded quantifies what the norm-adaptive precision map buys
// over the band-based assignment of the prior work ([12], [13]): both are
// evaluated at the same accuracy guarantee (the banded map's bands are the
// narrowest that dominate the adaptive map tile-wise), so any performance
// difference is pure precision-spend efficiency.
func AdaptiveVsBanded(app App, n, ts int, node *hw.NodeSpec, seed uint64) ([]AblationRow, error) {
	plat, err := runtime.NewPlatform(node, 1, 1)
	if err != nil {
		return nil, err
	}
	row := func(name string, res *cholesky.Result) AblationRow {
		return AblationRow{
			Variant:   name,
			Tflops:    res.Stats.Flops / 1e12,
			Time:      res.Stats.Makespan,
			BytesH2D:  res.Stats.BytesH2D,
			FP64Share: res.Maps.Fractions()[prec.FP64],
		}
	}
	adaptive, err := cholesky.RunPhantom(cholesky.Config{Platform: plat}, n, ts, Variant{App: &app}.Map(128, seed))
	if err != nil {
		return nil, err
	}
	b64, b32 := precmap.MatchBandsToMap(adaptive.Maps.Kernel)
	km, err := precmap.BandedKernelMap(adaptive.Maps.NT, b64, b32, prec.FP16)
	if err != nil {
		return nil, err
	}
	banded, err := cholesky.RunPhantom(cholesky.Config{Platform: plat}, n, ts, func(tile.Desc) [][]prec.Precision { return km })
	if err != nil {
		return nil, err
	}
	return []AblationRow{row("adaptive (Higham-Mary)", adaptive), row(fmt.Sprintf("banded (b64=%d,b32=%d)", b64, b32), banded)}, nil
}

// LookaheadAblation measures how the engine's stream pipeline depth affects
// the makespan of a transfer-bound factorization — the double-buffering
// design choice called out in DESIGN.md.
func LookaheadAblation(n, ts int, node *hw.NodeSpec, depths []int) ([]AblationRow, error) {
	plat, err := runtime.NewPlatform(node, 1, 1)
	if err != nil {
		return nil, err
	}
	km := Variant{OffDiag: prec.FP16}.Map(0, 0)
	var rows []AblationRow
	for _, d := range depths {
		res, err := cholesky.RunPhantom(cholesky.Config{Platform: plat, Options: runtime.Options{Lookahead: d}}, n, ts, km)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant:  fmt.Sprintf("lookahead=%d", d),
			Tflops:   res.Stats.Flops / 1e12,
			Time:     res.Stats.Makespan,
			BytesH2D: res.Stats.BytesH2D,
		})
	}
	return rows, nil
}
