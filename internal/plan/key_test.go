package plan_test

// Cache-key soundness: every input that shapes a factorization's schedule
// is part of the cache key. A cache primed with a base config is handed
// configs that differ from it in one input each; every one must miss or
// invalidate — never replay the base plan — and come out exactly as a
// fresh live run of the changed config.

import (
	"fmt"
	"reflect"
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/hw"
	"geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
)

// keyInputs is one factorization's schedule-shaping inputs.
type keyInputs struct {
	n, ts, p, q, ranks, dev int
	node                    hw.NodeSpec
	strat                   cholesky.Strategy
	lookahead               int
	ureq                    float64
	flipTile                bool // the last row's first tile, FP64 ↔ FP32
}

// keyBase is the primed config: 96×96 in 16×16 tiles (NT 6) on a 1×2 grid
// of a 4-rank Summit platform with 2 GPUs per rank. Each of keyRows moves
// exactly one input the key hashes: the matrix-size and tile-size rows keep
// NT at 6, each grid row moves one of P and Q, and the node and GPU rows
// swap one name, so dropping any one input from the key turns its row into
// a hit.
var keyBase = keyInputs{n: 96, ts: 16, p: 1, q: 2, ranks: 4, dev: 2,
	node: *hw.SummitNode, strat: cholesky.Auto, ureq: 1e-8}

var keyRows = []struct {
	name   string
	change func(*keyInputs)
}{
	{"matrix-size", func(in *keyInputs) { in.n = 90 }},
	{"tile-size", func(in *keyInputs) { in.ts = 17 }},
	{"grid-P", func(in *keyInputs) { in.p = 2 }},
	{"grid-Q", func(in *keyInputs) { in.q = 4 }},
	{"ranks", func(in *keyInputs) { in.ranks = 2 }},
	{"gpus-per-rank", func(in *keyInputs) { in.dev = 3 }},
	{"node", func(in *keyInputs) { in.node = *hw.GuyotNode; in.node.GPU = hw.V100 }},
	{"gpu", func(in *keyInputs) { in.node.GPU = hw.A100 }},
	{"strategy", func(in *keyInputs) { in.strat = cholesky.ForceTTC }},
	{"lookahead", func(in *keyInputs) { in.lookahead = 4 }},
	{"precision-map", func(in *keyInputs) { in.ureq = 1e-4 }},
	{"one-tile-precision", func(in *keyInputs) { in.flipTile = true }},
}

// config builds in as a numeric config. Its precision map is derived at
// in.ureq from the base config's matrix, so a row that changes only the
// shape keeps the base map — and with it the base precision signature.
func (in keyInputs) config(t *testing.T) cholesky.Config {
	t.Helper()
	base, _ := newSPDMatrix(t, keyBase.n, keyBase.ts, keyBase.p, keyBase.q)
	km := precmap.FromMatrix(base, in.ureq, prec.CholeskySet)
	if in.flipTile {
		if t := &km[len(km)-1][0]; *t == prec.FP64 {
			*t = prec.FP32
		} else {
			*t = prec.FP64
		}
	}
	maps := precmap.New(km, in.ureq)
	mat, d := newSPDMatrix(t, in.n, in.ts, in.p, in.q)
	mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
	plat, err := runtime.NewPlatform(&in.node, in.ranks, in.dev)
	if err != nil {
		t.Fatal(err)
	}
	return cholesky.Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat,
		Strategy: in.strat, Lookahead: in.lookahead, Trace: true}
}

// TestInvalidateNoChange: the base config run twice through one cache
// misses once and then hits, with nothing invalidated.
func TestInvalidateNoChange(t *testing.T) {
	cache := plan.NewCache(nil)
	for i := 0; i < 2; i++ {
		if _, err := cholesky.RunCached(keyBase.config(t), cache); err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s != (plan.Stats{Hits: 1, Misses: 1}) {
		t.Fatalf("the unchanged base config did not hit: %+v", s)
	}
}

// TestCacheKeyChangesNeverHit runs, per row, the base config through a new
// cache (a miss), then the changed config through the same cache: a shape
// change misses, a precision-map change invalidates.
func TestCacheKeyChangesNeverHit(t *testing.T) {
	for _, r := range keyRows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			in := keyBase
			r.change(&in)
			cache := plan.NewCache(nil)
			if _, err := cholesky.RunCached(keyBase.config(t), cache); err != nil {
				t.Fatal(err)
			}
			cfg := in.config(t)
			got, err := cholesky.RunCached(cfg, cache)
			if err != nil {
				t.Fatal(err)
			}
			want := plan.Stats{Misses: 2}
			if in.ureq != keyBase.ureq || in.flipTile {
				want = plan.Stats{Misses: 1, Invalidations: 1}
			}
			if s := cache.Stats(); s != want {
				t.Fatalf("cache counters %+v, want %+v", s, want)
			}
			fresh := in.config(t)
			ref, err := cholesky.Run(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest() != ref.Digest() || !reflect.DeepEqual(got.Stats, ref.Stats) {
				t.Fatalf("cached run diverges from a fresh one:\n%+v\n%+v", got.Stats, ref.Stats)
			}
			if fmt.Sprint(got.Err) != fmt.Sprint(ref.Err) {
				t.Fatalf("numeric failure %v, fresh %v", got.Err, ref.Err)
			}
			sameBits(t, factorBits(fresh.Matrix, fresh.Desc), factorBits(cfg.Matrix, cfg.Desc), r.name)
		})
	}
}
