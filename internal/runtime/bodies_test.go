package runtime

import (
	"errors"
	"fmt"
	gort "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// bodyGraph is a test graph of n one-device tasks without data; body(i)
// supplies task i's body (nil: none).
func bodyGraph(n int, body func(i int) func() error) *testGraph {
	g := newTestGraph(n)
	for i := range g.specs {
		g.specs[i] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e6,
			Output: OutputSpec{Data: -1}, Body: body(i)}
	}
	return g
}

// TestBodiesMeetAtBarrier: eight independent tasks on one device at
// Lookahead 2, whose first four bodies each wait until four have started.
// The simulated device overlaps two tasks; the host must not be held to
// that — when completion events joined the bodies this deadlocked.
func TestBodiesMeetAtBarrier(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(4))
	var started atomic.Int32
	gate := make(chan struct{})
	g := bodyGraph(8, func(int) func() error {
		return func() error {
			if started.Add(1) == 4 {
				close(gate)
			}
			<-gate
			return nil
		}
	})
	plat := onePlat(t)
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(plat, g, Options{Lookahead: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("deadlock: %d bodies started, four must be in flight at once", started.Load())
	}
	if started.Load() != 8 {
		t.Errorf("%d of 8 bodies ran", started.Load())
	}
}

// TestNoGoroutineOutlivesFailedRun: a run that aborts on a malformed graph
// returns only after the bodies it had started have returned and their
// goroutines have exited.
func TestNoGoroutineOutlivesFailedRun(t *testing.T) {
	var running, ran atomic.Int32
	g := bodyGraph(6, func(int) func() error {
		return func() error {
			running.Add(1)
			time.Sleep(time.Millisecond)
			ran.Add(1)
			running.Add(-1)
			return nil
		}
	})
	g.edge(0, 5)
	g.specs[5].Inputs = []InputSpec{{Data: 99, WireBytes: 8}} // no host copy anywhere
	before := gort.NumGoroutine()
	_, _, err := Run(onePlat(t), g, Options{})
	var ge *GraphError
	if !errors.As(err, &ge) || ge.Task != 5 {
		t.Fatalf("Run error %v, want a GraphError on task 5", err)
	}
	if running.Load() != 0 {
		t.Errorf("%d bodies still running when Run returned", running.Load())
	}
	if ran.Load() == 0 {
		t.Error("no body ran before the malformed task committed: scenario too weak")
	}
	checkGoroutines(t, before)
}

// checkGoroutines fails t if more goroutines than before remain. A
// goroutine that has returned from its function may take a moment to leave
// the count.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; gort.NumGoroutine() > before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := gort.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed run, %d before it", n, before)
	}
}

// TestDataOutsideRangeIsGraphError: a DataID outside [0, NumData()), named
// by InitialData, an input or an output, fails the run with a *GraphError
// that names the range; so do an initial datum or a broadcast target on a
// rank outside the platform, and a publish of no datum. A run that fails after its first
// bodies started returns only once they have, leaving no goroutine behind.
func TestDataOutsideRangeIsGraphError(t *testing.T) {
	for _, c := range []struct {
		name string
		task int    // the GraphError's task; -1: the initial data
		msg  string // in its message
		edit func(g *testGraph)
	}{
		{"initial", -1, "outside [0,4)", func(g *testGraph) { g.initial[4] = 0 }},
		{"negative-initial", -1, "outside [0,4)", func(g *testGraph) { g.initial[-1] = 0 }},
		{"initial-rank", -1, "invalid rank 5", func(g *testGraph) { g.initial[1] = 5 }},
		{"input", 3, "outside [0,4)", func(g *testGraph) { g.specs[3].Inputs = []InputSpec{{Data: 4, WireBytes: 8}} }},
		{"negative-input", 3, "outside [0,4)", func(g *testGraph) { g.specs[3].Inputs = []InputSpec{{Data: -2, WireBytes: 8}} }},
		{"output", 3, "outside [0,4)", func(g *testGraph) { g.specs[3].Output = OutputSpec{Data: 9, Bytes: 8} }},
		{"publish-without-output", 3, "publishes without an output", func(g *testGraph) { g.specs[3].Publish = &PublishSpec{WireBytes: 8} }},
		{"publish-to-invalid-rank", 3, "invalid rank 1", func(g *testGraph) {
			g.specs[3].Output = OutputSpec{Data: 3, Bytes: 8}
			g.specs[3].Publish = &PublishSpec{WireBytes: 8, RemoteRanks: []int{1}}
		}},
	} {
		var running atomic.Int32
		g := bodyGraph(4, func(int) func() error {
			return func() error {
				running.Add(1)
				time.Sleep(time.Millisecond)
				running.Add(-1)
				return nil
			}
		})
		for i := 1; i < 4; i++ {
			g.edge(i-1, i)
		}
		g.initial[0] = 0
		g.numData = 4
		c.edit(g)
		before := gort.NumGoroutine()
		_, _, err := Run(onePlat(t), g, Options{})
		var ge *GraphError
		if !errors.As(err, &ge) || ge.Task != c.task || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: Run error %v, want a GraphError on task %d: %s", c.name, err, c.task, c.msg)
		}
		if running.Load() != 0 {
			t.Errorf("%s: %d bodies still running when Run returned", c.name, running.Load())
		}
		checkGoroutines(t, before)
	}
}

// poisonGraph has two failing tasks, 1 and 2, with common descendants, and
// a component that descends from neither but feeds one that does:
//
//	0 → 1* → 3 → 6 ← 5 ← 4
//	0 → 2* → 3           5 → 7
func poisonGraph(ran []atomic.Int32) *testGraph {
	g := bodyGraph(8, func(i int) func() error {
		return func() error {
			ran[i].Add(1)
			if i == 1 || i == 2 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		}
	})
	g.edge(0, 1)
	g.edge(0, 2)
	g.edge(1, 3)
	g.edge(2, 3)
	g.edge(3, 6)
	g.edge(4, 5)
	g.edge(5, 7)
	g.edge(5, 6)
	return g
}

// TestFailedBodyPoisonsExactlyItsDescendants, twenty times at GOMAXPROCS 8
// through the engine and through RunBodies: the bodies that run are the
// tasks that descend from no failed task, each once, and the failure
// reported is that of the lowest-numbered failed task — not of whichever
// failed first on the clock.
func TestFailedBodyPoisonsExactlyItsDescendants(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(8))
	want := [8]int32{0: 1, 1: 1, 2: 1, 4: 1, 5: 1, 7: 1} // 3 and 6 descend from a failure
	for rep := 0; rep < 20; rep++ {
		for _, replay := range []bool{false, true} {
			ran := make([]atomic.Int32, 8)
			g := poisonGraph(ran)
			var bodyErr error
			if replay {
				var err error
				if bodyErr, err = RunBodies(g); err != nil {
					t.Fatal(err)
				}
			} else {
				var err error
				if _, bodyErr, err = Run(onePlat(t), g, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if bodyErr == nil || bodyErr.Error() != "task 1 failed" {
				t.Fatalf("replay=%v: body error %v, want task 1's", replay, bodyErr)
			}
			for i := range ran {
				if got := ran[i].Load(); got != want[i] {
					t.Fatalf("replay=%v: body %d ran %d times, want %d", replay, i, got, want[i])
				}
			}
		}
	}
}

// TestPanickingBodyFailsTheRun, through the engine and through RunBodies:
// the middle body of the chain 0 → 1 → 2 panics beside an independent task
// 3. The run returns an error naming task 1 and the panic value, not a body
// error; task 2 is skipped, 0 and 3 run; and no goroutine outlives the run.
func TestPanickingBodyFailsTheRun(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(4))
	for _, replay := range []bool{false, true} {
		ran := make([]atomic.Int32, 4)
		g := bodyGraph(4, func(i int) func() error {
			return func() error {
				ran[i].Add(1)
				if i == 1 {
					panic("planted defect")
				}
				return nil
			}
		})
		g.edge(0, 1)
		g.edge(1, 2)
		before := gort.NumGoroutine()
		var bodyErr, err error
		if replay {
			bodyErr, err = RunBodies(g)
		} else {
			_, bodyErr, err = Run(onePlat(t), g, Options{})
		}
		if err == nil || !strings.Contains(err.Error(), "task 1 ") || !strings.Contains(err.Error(), "planted defect") {
			t.Fatalf("replay=%v: run error %v, want task 1's panic", replay, err)
		}
		if bodyErr != nil {
			t.Errorf("replay=%v: a panic reported as body error %v", replay, bodyErr)
		}
		for i, want := range []int32{1, 1, 0, 1} {
			if got := ran[i].Load(); got != want {
				t.Errorf("replay=%v: body %d ran %d times, want %d", replay, i, got, want)
			}
		}
		for i := 0; gort.NumGoroutine() > before && i < 1000; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := gort.NumGoroutine(); n > before {
			t.Errorf("replay=%v: %d goroutines after the run, %d before it", replay, n, before)
		}
	}
}

// TestBodilessTasksKeepDataflowOrder: tasks without a body may sit anywhere
// in a graph that has bodies — committed before the executor exists (0, 1
// in flight or done when 2 commits), or between two bodies (3) — and the
// order of the bodies around them holds: 4 must see what 2 wrote.
func TestBodilessTasksKeepDataflowOrder(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		var wrote, saw atomic.Bool
		g := bodyGraph(5, func(i int) func() error {
			switch i {
			case 2:
				return func() error { time.Sleep(100 * time.Microsecond); wrote.Store(true); return nil }
			case 4:
				return func() error { saw.Store(wrote.Load()); return nil }
			}
			return nil
		})
		g.edge(0, 1)
		g.edge(1, 2)
		g.edge(2, 3)
		g.edge(3, 4)
		if _, _, err := Run(onePlat(t), g, Options{}); err != nil {
			t.Fatal(err)
		}
		if !saw.Load() {
			t.Fatal("engine: body 4 started before body 2 returned, through bodiless task 3")
		}
		wrote.Store(false)
		saw.Store(false)
		if bodyErr, err := RunBodies(g); bodyErr != nil || err != nil || !saw.Load() {
			t.Fatalf("RunBodies: errors %v, %v, body 4 saw body 2's write: %v", bodyErr, err, saw.Load())
		}
	}
}

// TestRunBodiesEndsOnMalformedGraph: on the cycle 1 ↔ 2 beside task 0, and
// on a task declaring a predecessor no edge stands for, RunBodies ends as
// Run does — with tasks that never became ready — after running the bodies
// that could run, and leaves no goroutine behind.
func TestRunBodiesEndsOnMalformedGraph(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(4))
	for _, c := range []struct {
		name string
		edit func(g *testGraph)
		left string   // in the error
		ran  [3]int32 // times each body ran
	}{
		{"cycle", func(g *testGraph) { g.edge(1, 2); g.edge(2, 1) }, "2 of 3 tasks never became ready", [3]int32{1, 0, 0}},
		{"under-release", func(g *testGraph) { g.edge(0, 1); g.preds[1] = append(g.preds[1], 0) }, "1 of 3 tasks never became ready", [3]int32{1, 0, 1}},
	} {
		ran := make([]atomic.Int32, 3)
		g := bodyGraph(3, func(i int) func() error {
			return func() error { ran[i].Add(1); return nil }
		})
		c.edit(g)
		before := gort.NumGoroutine()
		type result struct{ bodyErr, err error }
		done := make(chan result, 1)
		go func() {
			bodyErr, err := RunBodies(g)
			done <- result{bodyErr, err}
		}()
		select {
		case r := <-done:
			if r.bodyErr != nil || r.err == nil || !strings.Contains(r.err.Error(), c.left) {
				t.Errorf("%s: RunBodies = %v, %v; want no body error and %q", c.name, r.bodyErr, r.err, c.left)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: RunBodies did not return", c.name)
		}
		for i := range ran {
			if got := ran[i].Load(); got != c.ran[i] {
				t.Errorf("%s: body %d ran %d times, want %d", c.name, i, got, c.ran[i])
			}
		}
		checkGoroutines(t, before)
	}
}

// TestRunBodiesWithoutBodies: replaying a phantom graph starts no goroutine
// and allocates nothing beyond the one spec record it reads tasks into.
func TestRunBodiesWithoutBodies(t *testing.T) {
	g := bodyGraph(16, func(int) func() error { return nil })
	for i := 1; i < 16; i++ {
		g.edge(i-1, i)
	}
	if a := testing.AllocsPerRun(10, func() {
		if bodyErr, err := RunBodies(g); bodyErr != nil || err != nil {
			t.Error(bodyErr, err)
		}
	}); a > 1 {
		t.Errorf("RunBodies on a graph without bodies: %v allocs, want at most 1", a)
	}
}
