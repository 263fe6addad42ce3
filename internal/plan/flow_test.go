package plan

// The cached-run flow driven directly, on a four-task graph, without the
// factorization: miss → hit → changed-map invalidation → hit, with all
// three counters pinned after every step and every plan's Stats checked
// against an uncached run's. The factorization suite (cache_test.go) covers
// the same sequence end to end.

import (
	"reflect"
	"sync"
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/runtime"
)

// diamond is a four-task graph on one device: t0 writes d0, t1 and t2 read
// it, t3 joins them; task i writes di. wire is the format t1 receives d0 in
// — the stand-in for a precision-map change, which alters t1's spec.
type diamond struct{ wire prec.Precision }

var diamondSuccs = [][]int{{1, 2}, {3}, {3}, nil}

func (diamond) NumTasks() int                               { return 4 }
func (diamond) NumPredecessors(id int) int                  { return [...]int{0, 1, 1, 2}[id] }
func (diamond) Successors(id int, buf []int) []int          { return append(buf, diamondSuccs[id]...) }
func (diamond) NumData() int                                { return 4 }
func (diamond) InitialData(visit func(runtime.DataID, int)) { visit(0, 0) }

func (g diamond) Spec(id int, s *runtime.TaskSpec) {
	read := func(d runtime.DataID, p prec.Precision) runtime.InputSpec {
		return runtime.InputSpec{Data: d, WireBytes: int64(1024 * p.InputBytes()), WirePrec: p}
	}
	*s = runtime.TaskSpec{ID: id, Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e6,
		Output: runtime.OutputSpec{Data: runtime.DataID(id), Bytes: 8192, Prec: prec.FP64}}
	switch id {
	case 1:
		s.Inputs = []runtime.InputSpec{read(0, g.wire)}
	case 2:
		s.Inputs = []runtime.InputSpec{read(0, prec.FP64)}
	case 3:
		s.Inputs = []runtime.InputSpec{read(1, prec.FP64), read(2, prec.FP64)}
	}
}

func TestCacheRunFlow(t *testing.T) {
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := runtime.Options{Trace: true}
	const shape = 0x5a
	fresh := map[prec.Precision]runtime.Stats{}
	for _, wire := range []prec.Precision{prec.FP32, prec.FP16} {
		stats, _, err := runtime.Run(plat, diamond{wire}, opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh[wire] = stats
	}
	if fresh[prec.FP32].ScheduleDigest == fresh[prec.FP16].ScheduleDigest {
		t.Fatal("the wire-format change does not move the schedule digest")
	}

	c := NewCache(nil)
	for _, step := range []struct {
		name string
		wire prec.Precision
		want Stats
	}{
		{"miss", prec.FP32, Stats{Misses: 1}},
		{"hit", prec.FP32, Stats{Hits: 1, Misses: 1}},
		{"changed map", prec.FP16, Stats{Hits: 1, Misses: 1, Invalidations: 1}},
		{"hit after recompile", prec.FP16, Stats{Hits: 2, Misses: 1, Invalidations: 1}},
	} {
		p, bodyErr, err := c.Run(shape, uint64(step.wire), diamond{step.wire}, plat, opt)
		if err != nil || bodyErr != nil {
			t.Fatalf("%s: error %v, body error %v", step.name, err, bodyErr)
		}
		if got := c.Stats(); got != step.want {
			t.Fatalf("%s: counters %+v, want %+v", step.name, got, step.want)
		}
		// A plan freezes the run's record, traced timeline included.
		if !reflect.DeepEqual(p.Stats, fresh[step.wire]) {
			t.Fatalf("%s: plan stats %+v != fresh run's %+v", step.name, p.Stats, fresh[step.wire])
		}
	}
	if len(c.plans) != 1 {
		t.Fatalf("cache holds %d plans for one shape", len(c.plans))
	}
}

// TestCacheConcurrentHammer drives the cache's internals from many
// goroutines at once: lookups, stores, counter bumps and snapshots all
// interleave. The run is only meaningful under -race (the CI test job); the
// final assertions check the counters' atomicity arithmetic.
func TestCacheConcurrentHammer(t *testing.T) {
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sa, _, err := runtime.Run(plat, diamond{prec.FP32}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := runtime.Run(plat, diamond{prec.FP16}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := &Plan{Sig: 0xa, PrecSig: 1, Stats: sa}, &Plan{Sig: 0xb, PrecSig: 1, Stats: sb}
	cache := NewCache(nil)

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					cache.store(pa)
					cache.misses.Add(1)
				case 1:
					cache.store(pb)
					cache.invalidations.Add(1)
				case 2:
					if p := cache.lookup(pa.Sig); p != nil && p.Sig != pa.Sig {
						t.Errorf("lookup returned plan with sig %016x under key %016x", p.Sig, pa.Sig)
					}
					cache.hits.Add(1)
				default:
					_ = cache.Stats()
				}
			}
		}(w)
	}
	wg.Wait()

	s := cache.Stats()
	per := int64(workers * iters / 4)
	if s.Misses != per || s.Hits != per || s.Invalidations != per {
		t.Errorf("counter totals %+v, want %d each", s, per)
	}
	if len(cache.plans) != 2 {
		t.Errorf("cache holds %d plans, want 2", len(cache.plans))
	}
}
