package bench

import (
	"fmt"
	"strings"

	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/tile"
)

// PrecMapResult is the Fig 7 output for one application: the kernel
// precision map and the fraction of tiles per precision.
type PrecMapResult struct {
	App       string
	N, TS, NT int
	Maps      *precmap.Maps
	Fractions map[prec.Precision]float64
	STCShare  float64 // fraction of communication-issuing tasks using STC
}

// PrecisionMap computes the Fig 7 kernel-precision map for one application
// at the given matrix and tile size, using the sampled tile-norm estimator
// (exact below the sampling threshold) with `samples` entries per tile.
func PrecisionMap(app App, n, ts, samples int, seed uint64) (*PrecMapResult, error) {
	if samples < 1 {
		return nil, fmt.Errorf("bench: need at least one tile-norm sample per tile, got %d", samples)
	}
	desc, err := tile.NewDesc(n, ts, 1, 1)
	if err != nil {
		return nil, err
	}
	maps := precmap.New(Variant{App: &app}.Map(samples, seed)(desc), 0)
	stc, total := maps.STCCount()
	share := 0.0
	if total > 0 {
		share = float64(stc) / float64(total)
	}
	return &PrecMapResult{
		App: app.Name, N: n, TS: ts, NT: desc.NT,
		Maps:      maps,
		Fractions: maps.Fractions(),
		STCShare:  share,
	}, nil
}

// precGlyph maps a precision to the single character used in ASCII map
// rendering.
func precGlyph(p prec.Precision) byte {
	switch p {
	case prec.FP64:
		return 'D'
	case prec.FP32:
		return 'S'
	case prec.FP16x32:
		return 'h'
	case prec.FP16:
		return 'H'
	default:
		return '?'
	}
}

// renderMap draws a lower-triangular precision map as ASCII rows, one
// glyph and a space per tile; with star, each glyph is followed by '*'
// where star holds and by a space elsewhere.
func renderMap(p [][]prec.Precision, star func(i, j int) bool) string {
	var b strings.Builder
	for i := range p {
		for j := 0; j <= i; j++ {
			b.WriteByte(precGlyph(p[i][j]))
			switch {
			case star == nil:
			case star(i, j):
				b.WriteByte('*')
			default:
				b.WriteByte(' ')
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderKernelMap draws the lower-triangular kernel-precision map (Fig 2a /
// Fig 7 heat map) as ASCII: D=FP64, S=FP32, h=FP16_32, H=FP16.
func RenderKernelMap(m *precmap.Maps) string { return renderMap(m.Kernel, nil) }

// RenderCommMap draws the communication-precision map of Algorithm 2
// (Fig 4b); tasks applying STC are marked with '*' after the glyph.
func RenderCommMap(m *precmap.Maps) string { return renderMap(m.Comm, m.STC) }

// RenderStorageMap draws the storage-precision map (Fig 2b).
func RenderStorageMap(m *precmap.Maps) string { return renderMap(m.Storage, nil) }
