package bench

import (
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// Variant is one line of a performance figure: the precision map the
// factorization runs under. Only the map changes between the lines of
// Figs 8–12.
type Variant struct {
	Name string
	// App, when set, selects the application's adaptive (Higham–Mary) map
	// from sampled tile norms at its u_req.
	App *App
	// OffDiag is otherwise the kernel precision of every off-diagonal tile;
	// diagonal tiles stay FP64 unless Uniform is set.
	OffDiag prec.Precision
	// Uniform applies OffDiag to the diagonal too (FP64/FP32 baselines).
	Uniform bool
}

var fp64 = Variant{Name: "FP64", OffDiag: prec.FP64, Uniform: true}

// Baselines returns the lines of Figs 8, 9 and 11: the FP64 and FP32
// baselines and the FP64/FP16_32 and FP64/FP16 extremes, where every
// communication is eligible for STC.
func Baselines() []Variant {
	return []Variant{
		fp64,
		{Name: "FP32", OffDiag: prec.FP32, Uniform: true},
		{Name: "FP64/FP16_32", OffDiag: prec.FP16x32},
		{Name: "FP64/FP16", OffDiag: prec.FP16},
	}
}

// appVariants returns one adaptive line per application, named prefix plus
// the application's name.
func appVariants(prefix string) []Variant {
	apps := Apps()
	out := make([]Variant, len(apps))
	for i := range apps {
		out[i] = Variant{Name: prefix + apps[i].Name, App: &apps[i]}
	}
	return out
}

// Map returns the builder of v's kernel map for a tiling. An application
// map draws its locations and `samples` entries per tile from RNG stream 0
// of seed.
func (v Variant) Map(samples int, seed uint64) func(tile.Desc) [][]prec.Precision {
	return func(d tile.Desc) [][]prec.Precision {
		switch {
		case v.App != nil:
			a := v.App
			return precmap.Sampled(d, a.Kernel, a.Theta, a.Nugget, a.UReq, samples, stats.NewRNG(seed, 0))
		case v.Uniform:
			return precmap.UniformAll(d.NT, v.OffDiag)
		}
		return precmap.Uniform(d.NT, v.OffDiag)
	}
}
