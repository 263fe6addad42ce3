package plan

// The cached-run flow driven directly, on a four-task graph, without the
// factorization: nil-cache live runs, then miss → hit → changed-map
// invalidation → hit, with all five counters pinned after every step. The
// factorization suite (cache_test.go) covers the same sequence end to end.

import (
	"sync"
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/runtime"
)

// diamond is a four-task graph on one device: t0 writes d0, t1 and t2 read
// it, t3 joins them; task i writes di. wire is the format t1 receives d0 in
// — the stand-in for a precision-map change, which alters t1's spec and
// dirties t1 and t3.
type diamond struct{ wire prec.Precision }

var diamondSuccs = [][]int{{1, 2}, {3}, {3}, nil}

func (diamond) NumTasks() int                               { return 4 }
func (diamond) NumPredecessors(id int) int                  { return [...]int{0, 1, 1, 2}[id] }
func (diamond) Successors(id int, buf []int) []int          { return append(buf, diamondSuccs[id]...) }
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
	engine := func(g runtime.Graph) *runtime.Engine { return runtime.New(plat, g) }
	const shape = 0x5a
	run := func(c *Cache, wire prec.Precision) Outcome {
		t.Helper()
		out, err := c.Run(
			func() (uint64, uint64) { return shape, uint64(wire) },
			func() (runtime.Graph, error) { return diamond{wire}, nil },
			engine)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	fresh := map[prec.Precision]uint64{}
	for _, wire := range []prec.Precision{prec.FP32, prec.FP16} {
		out := run(nil, wire)
		if out.Engine == nil || out.Plan != nil {
			t.Fatalf("nil cache did not run live: %+v", out)
		}
		// This engine runs untraced: a live outcome has no timeline.
		if len(out.Schedule()) != 0 || out.Metrics() == nil {
			t.Fatalf("live run: %d scheduled tasks, want 0; metrics %v", len(out.Schedule()), out.Metrics())
		}
		fresh[wire] = out.Stats.ScheduleDigest
	}
	if fresh[prec.FP32] == fresh[prec.FP16] {
		t.Fatal("the wire-format change does not move the schedule digest")
	}

	c := NewCache(nil)
	for _, step := range []struct {
		name string
		wire prec.Precision
		want Stats
	}{
		{"miss", prec.FP32, Stats{Misses: 1}},
		{"hit", prec.FP32, Stats{Hits: 1, Misses: 1, Replays: 1}},
		{"changed map", prec.FP16,
			Stats{Hits: 1, Misses: 1, Replays: 1, Invalidations: 1, TasksInvalidated: 2}},
		{"hit after recompile", prec.FP16,
			Stats{Hits: 2, Misses: 1, Replays: 2, Invalidations: 1, TasksInvalidated: 2}},
	} {
		out := run(c, step.wire)
		if got := c.Stats(); got != step.want {
			t.Fatalf("%s: counters %+v, want %+v", step.name, got, step.want)
		}
		if out.Engine != nil || out.Plan == nil {
			t.Fatalf("%s: cached run has engine=%v plan=%v", step.name, out.Engine != nil, out.Plan != nil)
		}
		if out.Stats.ScheduleDigest != fresh[step.wire] {
			t.Fatalf("%s: digest %016x != fresh run's %016x", step.name, out.Stats.ScheduleDigest, fresh[step.wire])
		}
		// A plan freezes the traced timeline.
		if len(out.Schedule()) != 4 || out.Metrics() == nil {
			t.Fatalf("%s: %d scheduled tasks, want 4; metrics %v",
				step.name, len(out.Schedule()), out.Metrics())
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d plans for one shape", c.Len())
	}
}

// TestCacheConcurrentHammer drives the cache's internals from many
// goroutines at once: lookups, stores, counter bumps and snapshots all
// interleave. The run is only meaningful under -race (the plan-cache and
// sweep-matrix CI jobs); the final assertions check the counters' atomicity
// arithmetic.
func TestCacheConcurrentHammer(t *testing.T) {
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Compile(runtime.New(plat, diamond{prec.FP32}), 0xa, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Compile(runtime.New(plat, diamond{prec.FP16}), 0xb, 1)
	if err != nil {
		t.Fatal(err)
	}
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
					cache.misses.Inc()
				case 1:
					cache.store(pb)
					cache.invalidations.Inc()
					cache.tasksDirty.Add(3)
				case 2:
					if p := cache.lookup(pa.Sig); p != nil && p.Sig != pa.Sig {
						t.Errorf("lookup returned plan with sig %016x under key %016x", p.Sig, pa.Sig)
					}
					cache.hits.Inc()
					cache.replays.Inc()
				default:
					_ = cache.Stats()
					_ = cache.Len()
				}
			}
		}(w)
	}
	wg.Wait()

	s := cache.Stats()
	per := int64(workers * iters / 4)
	if s.Misses != per || s.Hits != per || s.Replays != per || s.Invalidations != per {
		t.Errorf("counter totals %+v, want %d each", s, per)
	}
	if s.TasksInvalidated != 3*per {
		t.Errorf("tasks invalidated = %d, want %d", s.TasksInvalidated, 3*per)
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d plans, want 2", cache.Len())
	}
}
