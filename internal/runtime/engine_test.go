package runtime

import (
	"errors"
	"fmt"
	"math"
	gort "runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// testGraph is an explicit DAG for engine testing.
type testGraph struct {
	specs   []TaskSpec
	preds   [][]int
	succs   [][]int
	initial map[DataID]int // data -> rank
	// numData is NumData's answer; 0 means one past the largest DataID
	// the graph names.
	numData int
}

func (g *testGraph) NumTasks() int { return len(g.specs) }
func (g *testGraph) Spec(id int, s *TaskSpec) {
	*s = g.specs[id]
	s.ID = id
}
func (g *testGraph) NumPredecessors(id int) int { return len(g.preds[id]) }
func (g *testGraph) Successors(id int, buf []int) []int {
	return append(buf, g.succs[id]...)
}
func (g *testGraph) NumData() int {
	if g.numData > 0 {
		return g.numData
	}
	n := DataID(0)
	for d := range g.initial {
		n = max(n, d+1)
	}
	for _, s := range g.specs {
		for _, in := range s.Inputs {
			n = max(n, in.Data+1)
		}
		n = max(n, s.Output.Data+1)
	}
	return int(n)
}
func (g *testGraph) InitialData(visit func(d DataID, rank int)) {
	ids := make([]DataID, 0, len(g.initial))
	for d := range g.initial {
		ids = append(ids, d)
	}
	slices.Sort(ids) // callbacks must not observe Go's map order
	for _, d := range ids {
		visit(d, g.initial[d])
	}
}

func newTestGraph(n int) *testGraph {
	return &testGraph{
		specs:   make([]TaskSpec, n),
		preds:   make([][]int, n),
		succs:   make([][]int, n),
		initial: map[DataID]int{},
	}
}

func (g *testGraph) edge(from, to int) {
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
}

// newDataflowGraph builds a testGraph from specs taken as a sequential
// program: each task depends on the last writer of every datum it reads or
// writes (read-after-write, write-after-write) and on every reader of its
// output since that write (write-after-read).
func newDataflowGraph(specs []TaskSpec, initial map[DataID]int) *testGraph {
	g := newTestGraph(len(specs))
	copy(g.specs, specs)
	g.initial = initial
	lastWriter := map[DataID]int{}
	readers := map[DataID][]int{}
	for id, s := range specs {
		deps := map[int]bool{}
		for _, in := range s.Inputs {
			if w, ok := lastWriter[in.Data]; ok {
				deps[w] = true
			}
			readers[in.Data] = append(readers[in.Data], id)
		}
		out := s.Output.Data
		if w, ok := lastWriter[out]; ok {
			deps[w] = true
		}
		for _, r := range readers[out] {
			deps[r] = true
		}
		delete(deps, id)
		lastWriter[out], readers[out] = id, nil
		preds := make([]int, 0, len(deps))
		for p := range deps {
			preds = append(preds, p)
		}
		slices.Sort(preds)
		for _, p := range preds {
			g.edge(p, id)
		}
	}
	return g
}

func onePlat(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleTask(t *testing.T) {
	g := newTestGraph(1)
	g.initial[1] = 0
	flops := 2.0 * 1024 * 1024 * 1024
	g.specs[0] = TaskSpec{
		Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: flops,
		Inputs: []InputSpec{{Data: 1, WireBytes: 8 << 20}},
		Output: OutputSpec{Data: 1, Bytes: 8 << 20},
	}
	st, _, err := Run(onePlat(t), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Makespan = H2D(8MiB) + kernel time (input and output are the same
	// tile, staged once).
	wantXfer := hw.V100.H2DLink().Time(8 << 20)
	wantKernel := hw.V100.KernelTime(hw.KindGemm, prec.FP64, flops)
	want := wantXfer + wantKernel
	if math.Abs(st.Makespan-want) > 1e-12 {
		t.Errorf("makespan %g, want %g", st.Makespan, want)
	}
	if st.BytesH2D != 8<<20 {
		t.Errorf("BytesH2D = %d, want %d", st.BytesH2D, 8<<20)
	}
	if st.Tasks != 1 || st.TotalFlops != flops {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestChainRespectsDependencies(t *testing.T) {
	// 3-task chain on one device, no data: makespan = 3 kernels.
	g := newTestGraph(3)
	for i := 0; i < 3; i++ {
		g.specs[i] = TaskSpec{
			Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e9,
			Output: OutputSpec{Data: -1},
		}
	}
	g.edge(0, 1)
	g.edge(1, 2)
	st, _, err := Run(onePlat(t), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * hw.V100.KernelTime(hw.KindGemm, prec.FP64, 1e9)
	if math.Abs(st.Makespan-want) > 1e-12 {
		t.Errorf("chain makespan %g, want %g", st.Makespan, want)
	}
}

func TestParallelTasksOnTwoDevices(t *testing.T) {
	p, err := NewPlatform(hw.SummitNode, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGraph(2)
	for i := 0; i < 2; i++ {
		g.specs[i] = TaskSpec{
			Kind: hw.KindGemm, Device: i, Prec: prec.FP64, Flops: 1e9,
			Output: OutputSpec{Data: -1},
		}
	}
	st, _, err := Run(p, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := hw.V100.KernelTime(hw.KindGemm, prec.FP64, 1e9)
	if math.Abs(st.Makespan-want) > 1e-12 {
		t.Errorf("parallel makespan %g, want %g (one kernel)", st.Makespan, want)
	}
}

func TestComputeStreamSerializes(t *testing.T) {
	// Two independent tasks on one device must serialize on the compute
	// stream.
	g := newTestGraph(2)
	for i := 0; i < 2; i++ {
		g.specs[i] = TaskSpec{
			Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e9,
			Output: OutputSpec{Data: -1},
		}
	}
	st, _, err := Run(onePlat(t), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * hw.V100.KernelTime(hw.KindGemm, prec.FP64, 1e9)
	if math.Abs(st.Makespan-want) > 1e-12 {
		t.Errorf("serialized makespan %g, want %g", st.Makespan, want)
	}
}

func TestTransferOverlapsCompute(t *testing.T) {
	// Task B's input transfer should overlap task A's kernel (lookahead
	// pipeline): makespan < serial sum, ≥ max leg.
	g := newTestGraph(2)
	g.initial[7] = 0
	g.specs[0] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e10, Output: OutputSpec{Data: -1}}
	g.specs[1] = TaskSpec{
		Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e10,
		Inputs: []InputSpec{{Data: 7, WireBytes: 32 << 20}},
		Output: OutputSpec{Data: -1},
	}
	st, _, err := Run(onePlat(t), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kernel := hw.V100.KernelTime(hw.KindGemm, prec.FP64, 1e10)
	xfer := hw.V100.H2DLink().Time(32 << 20)
	if xfer > kernel {
		t.Fatalf("test setup wrong: transfer %g should be shorter than kernel %g", xfer, kernel)
	}
	want := 2 * kernel // transfer fully hidden
	if math.Abs(st.Makespan-want) > 1e-12 {
		t.Errorf("overlapped makespan %g, want %g", st.Makespan, want)
	}
}

func TestResidencyAvoidsRetransfer(t *testing.T) {
	// Two tasks reading the same tile on the same device: one transfer.
	g := newTestGraph(2)
	g.initial[3] = 0
	for i := 0; i < 2; i++ {
		g.specs[i] = TaskSpec{
			Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e9,
			Inputs: []InputSpec{{Data: 3, WireBytes: 4 << 20}},
			Output: OutputSpec{Data: -1},
		}
	}
	st, _, err := Run(onePlat(t), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesH2D != 4<<20 {
		t.Errorf("BytesH2D = %d, want one transfer of %d", st.BytesH2D, 4<<20)
	}
}

func TestPublishAndRemoteConsumption(t *testing.T) {
	// Producer on rank 0, consumer on rank 1: publish must move the data
	// D2H, across the network, and H2D on the consumer.
	p, err := NewPlatform(hw.SummitNode, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGraph(2)
	wire := int64(2 << 20)
	g.specs[0] = TaskSpec{
		Kind: hw.KindTrsm, Device: 0, Prec: prec.FP64, Flops: 1e9,
		Output:  OutputSpec{Data: 9, Bytes: 4 << 20},
		Publish: &PublishSpec{WireBytes: wire, RemoteRanks: []int{1}},
	}
	g.specs[1] = TaskSpec{
		Kind: hw.KindGemm, Device: 1, Prec: prec.FP64, Flops: 1e9,
		Inputs: []InputSpec{{Data: 9, WireBytes: wire}},
		Output: OutputSpec{Data: -1},
	}
	g.edge(0, 1)
	st, _, err := Run(p, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesNet != wire {
		t.Errorf("BytesNet = %d, want %d", st.BytesNet, wire)
	}
	if st.BytesD2H != wire {
		t.Errorf("BytesD2H = %d, want %d", st.BytesD2H, wire)
	}
	if st.BytesH2D != wire {
		t.Errorf("BytesH2D = %d, want %d", st.BytesH2D, wire)
	}
	// Makespan must include kernel + D2H + net hop + H2D + kernel.
	k := hw.V100.KernelTime(hw.KindTrsm, prec.FP64, 1e9)
	k2 := hw.V100.KernelTime(hw.KindGemm, prec.FP64, 1e9)
	min := k + hw.V100.D2HLink().Time(wire) + hw.SummitNode.NetLat + float64(wire)/hw.SummitNode.NetBw + hw.V100.H2DLink().Time(wire) + k2
	if st.Makespan < min-1e-12 {
		t.Errorf("makespan %g below physical minimum %g", st.Makespan, min)
	}
}

func TestSenderAndReceiverConversions(t *testing.T) {
	g := newTestGraph(2)
	g.specs[0] = TaskSpec{
		Kind: hw.KindTrsm, Device: 0, Prec: prec.FP32, Flops: 1e9,
		Output: OutputSpec{Data: 5, Bytes: 4 << 20},
		Publish: &PublishSpec{
			WireBytes: 2 << 20, ConvertElems: 1 << 20,
			ConvFrom: prec.FP32, ConvTo: prec.FP16,
		},
	}
	g.specs[1] = TaskSpec{
		Kind: hw.KindSyrk, Device: 0, Prec: prec.FP64, Flops: 1e9,
		Inputs: []InputSpec{{Data: 5, WireBytes: 2 << 20, ConvertElems: 1 << 20, ConvFrom: prec.FP16, ConvTo: prec.FP64}},
		Output: OutputSpec{Data: -1},
	}
	g.edge(0, 1)
	st, _, err := Run(onePlat(t), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SenderConversions != 1 {
		t.Errorf("SenderConversions = %d, want 1", st.SenderConversions)
	}
	if st.ReceiverConversions != 1 {
		t.Errorf("ReceiverConversions = %d, want 1", st.ReceiverConversions)
	}
}

func TestLRUEvictionAndWriteback(t *testing.T) {
	// Tiny device memory forces eviction; the dirty output must be written
	// back and the input re-fetched.
	node := *hw.SummitNode
	gpu := *hw.V100
	gpu.MemBytes = 10 << 20 // fits one 8 MiB tile plus change
	node.GPU = &gpu
	p, err := NewPlatform(&node, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGraph(3)
	g.initial[1] = 0
	g.initial[2] = 0
	// Task 0 writes tile 1 (dirty). Task 1 reads tile 2 (evicts tile 1 →
	// writeback). Task 2 reads tile 1 again (re-fetch H2D).
	g.specs[0] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e8,
		Output: OutputSpec{Data: 1, Bytes: 8 << 20}}
	g.specs[1] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e8,
		Inputs: []InputSpec{{Data: 2, WireBytes: 8 << 20}},
		Output: OutputSpec{Data: -1}}
	g.specs[2] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e8,
		Inputs: []InputSpec{{Data: 1, WireBytes: 8 << 20}},
		Output: OutputSpec{Data: -1}}
	g.edge(0, 1)
	g.edge(1, 2)
	// Lookahead 1 keeps pins tight so eviction can happen between tasks.
	st, _, err := Run(p, g, Options{Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Devices[0].Evictions == 0 {
		t.Error("no evictions under memory pressure")
	}
	if st.Devices[0].Writebacks == 0 || st.BytesD2H == 0 {
		t.Error("dirty eviction did not write back")
	}
	// Tile 1 fetched again: initial output H2D (8 MiB) + tile 2 (8 MiB) +
	// re-fetch (8 MiB) = 24 MiB.
	if st.BytesH2D != 24<<20 {
		t.Errorf("BytesH2D = %d, want %d", st.BytesH2D, 24<<20)
	}
}

// TestStagedTilesPinnedDuringCommit: with nothing else in flight, a
// task's inputs stay pinned while its own later inputs and output are
// staged — the device over-commits instead of evicting them.
func TestStagedTilesPinnedDuringCommit(t *testing.T) {
	node := *hw.SummitNode
	gpu := *hw.V100
	gpu.MemBytes = 20 << 20 // two 8 MiB tiles, not three
	node.GPU = &gpu
	p, err := NewPlatform(&node, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGraph(1)
	g.initial[1], g.initial[2] = 0, 0
	g.specs[0] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e8,
		Inputs: []InputSpec{{Data: 1, WireBytes: 8 << 20}, {Data: 2, WireBytes: 8 << 20}},
		Output: OutputSpec{Data: 3, Bytes: 8 << 20}}
	st, _, err := Run(p, g, Options{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := st.Devices[0]; d.Evictions != 0 || d.PeakResident != 24<<20 {
		t.Errorf("%d evictions, peak residency %d B; want 0 and %d (over-committed)", d.Evictions, d.PeakResident, 24<<20)
	}
}

func TestNumericBodiesRunInDependencyOrder(t *testing.T) {
	var order [4]int32
	var ctr atomic.Int32
	g := newTestGraph(4)
	for i := 0; i < 4; i++ {
		i := i
		g.specs[i] = TaskSpec{
			Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e6,
			Output: OutputSpec{Data: -1},
			Body:   func() error { order[i] = ctr.Add(1); return nil },
		}
	}
	// diamond: 0 -> {1,2} -> 3
	g.edge(0, 1)
	g.edge(0, 2)
	g.edge(1, 3)
	g.edge(2, 3)
	if _, _, err := Run(onePlat(t), g, Options{}); err != nil {
		t.Fatal(err)
	}
	if !(order[0] < order[1] && order[0] < order[2] && order[3] > order[1] && order[3] > order[2]) {
		t.Errorf("bodies ran out of dependency order: %v", order)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Among simultaneously-ready tasks, higher priority runs first: on the
	// simulated device, and — with one goroutine to run them, so that the
	// order is observable — among the bodies too.
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(1))
	var first atomic.Int32
	g := newTestGraph(2)
	g.specs[0] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e6,
		Priority: 1, Output: OutputSpec{Data: -1},
		Body: func() error { first.CompareAndSwap(0, 1); return nil }}
	g.specs[1] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e6,
		Priority: 100, Output: OutputSpec{Data: -1},
		Body: func() error { first.CompareAndSwap(0, 2); return nil }}
	st, _, err := Run(onePlat(t), g, Options{Trace: true, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Load() != 2 {
		t.Errorf("high-priority body did not run first (winner %d)", first.Load())
	}
	if sch := st.Trace.Tasks; len(sch) != 2 || sch[0].ID != 1 {
		t.Errorf("simulated schedule %+v: want the high-priority task first", sch)
	}
}

// TestReadyQueueOrder: a ready queue pops by descending priority, ties by
// ascending task id. Ten tasks tie on priority, so a tie-break that is not
// the id (a coin flip passes a single tied pair every other run) cannot
// order them all by luck; the extreme priorities, each tied between two
// ids, pop in order (^p does not overflow where -p would). An event queue
// pops by ascending time, equal times by sequence, +Inf last.
func TestReadyQueueOrder(t *testing.T) {
	var h queue[int64]
	push := func(id int, pri int64) { h.push(^pri, int64(id), &TaskSpec{ID: id, Priority: pri}) }
	push(3, 10)
	push(1, 10)
	push(0, 5)
	push(2, 20)
	for id := 11; id > 3; id-- {
		push(id, 10)
	}
	want := []int{2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0}
	var got []int
	for h.Len() > 0 {
		got = append(got, h.pop().spec.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}

	for i, pri := range []int64{0, math.MaxInt64, -1, math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1} {
		push(20-i, pri)
	}
	want = []int{16, 19, 15, 20, 13, 18, 14, 17}
	got = got[:0]
	for h.Len() > 0 {
		got = append(got, h.pop().spec.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("extreme priorities pop order %v, want %v", got, want)
	}

	var ev queue[float64]
	inf := math.Inf(1)
	for _, e := range []struct {
		at  float64
		seq int64
	}{{2, 5}, {inf, 1}, {1, 9}, {2, 3}, {1, 2}, {2, 4}, {0.5, 8}} {
		ev.push(e.at, e.seq, nil)
	}
	var seqs []int64
	for ev.Len() > 0 {
		e := ev.pop()
		seqs = append(seqs, e.tie)
		if ev.Len() == 0 && e.key != inf {
			t.Errorf("last event at %g, want +Inf", e.key)
		}
	}
	if want := []int64{8, 2, 9, 3, 4, 5, 1}; !slices.Equal(seqs, want) {
		t.Fatalf("event pop order (sequences) %v, want %v", seqs, want)
	}
}

func TestEnergyAccounting(t *testing.T) {
	g := newTestGraph(1)
	flops := 7.8e12 * 0.97 // exactly one second of FP64 on V100 (minus launch)
	g.specs[0] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: flops,
		Output: OutputSpec{Data: -1}}
	st, _, err := Run(onePlat(t), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Power during the run ≈ idle + full FP64 dynamic ≈ TDP.
	if math.Abs(st.AvgPower-hw.V100.TDP) > 1 {
		t.Errorf("average power %g W, want ≈ TDP %g W", st.AvgPower, hw.V100.TDP)
	}
	if st.Energy <= 0 {
		t.Error("no energy recorded")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		g := newTestGraph(40)
		g.initial[100] = 0
		for i := 0; i < 40; i++ {
			g.specs[i] = TaskSpec{
				Kind: hw.KindGemm, Device: i % 2, Prec: prec.FP64, Flops: float64(1e8 + i),
				Priority: int64(i % 7),
				Inputs:   []InputSpec{{Data: 100, WireBytes: 1 << 20}},
				Output:   OutputSpec{Data: DataID(200 + i), Bytes: 1 << 20},
			}
			if i >= 2 {
				g.edge(i-2, i)
			}
		}
		p, _ := NewPlatform(hw.SummitNode, 1, 2)
		st, _, err := Run(p, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Energy != b.Energy || a.BytesH2D != b.BytesH2D {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestMissingInputIsGraphError(t *testing.T) {
	g := newTestGraph(1)
	g.specs[0] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1,
		Inputs: []InputSpec{{Data: 42, WireBytes: 1}},
		Output: OutputSpec{Data: -1}}
	_, _, err := Run(onePlat(t), g, Options{})
	var ge *GraphError
	if !errors.As(err, &ge) {
		t.Fatalf("missing input: err = %v, want a *GraphError", err)
	}
	if ge.Task != 0 {
		t.Errorf("GraphError.Task = %d, want 0", ge.Task)
	}
}

func TestInvalidDeviceIsGraphError(t *testing.T) {
	g := newTestGraph(1)
	g.specs[0] = TaskSpec{Kind: hw.KindGemm, Device: 7, Prec: prec.FP64, Flops: 1,
		Output: OutputSpec{Data: -1}}
	_, _, err := Run(onePlat(t), g, Options{})
	var ge *GraphError
	if !errors.As(err, &ge) {
		t.Fatalf("invalid device: err = %v, want a *GraphError", err)
	}
}

// TestUnrunnableKernelIsGraphError: a kernel class or precision the cost
// model has no entry for, and a negative or NaN flop count (which would let
// a device finish a task before the one committed ahead of it), fail the
// run with a *GraphError instead of indexing past the model or reordering
// a device's completions.
func TestUnrunnableKernelIsGraphError(t *testing.T) {
	for name, spec := range map[string]TaskSpec{
		"kind":           {Kind: hw.NumKinds, Prec: prec.FP64, Flops: 1},
		"precision":      {Kind: hw.KindGemm, Prec: prec.Precision(prec.Count), Flops: 1},
		"negative-flops": {Kind: hw.KindGemm, Prec: prec.FP64, Flops: -1},
		"nan-flops":      {Kind: hw.KindGemm, Prec: prec.FP64, Flops: math.NaN()},
	} {
		g := newTestGraph(1)
		spec.Output.Data = -1
		g.specs[0] = spec
		_, _, err := Run(onePlat(t), g, Options{})
		var ge *GraphError
		if !errors.As(err, &ge) {
			t.Errorf("%s: err = %v, want a *GraphError", name, err)
		}
	}
}

func TestTraceIntervals(t *testing.T) {
	g := newTestGraph(2)
	for i := 0; i < 2; i++ {
		g.specs[i] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e9,
			Output: OutputSpec{Data: -1}}
	}
	g.edge(0, 1)
	st, _, err := Run(onePlat(t), g, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	busy := st.Trace.Devices[0].Kernel
	if len(busy) != 2 {
		t.Fatalf("expected 2 busy intervals, got %d", len(busy))
	}
	if busy[0].End > busy[1].Start+1e-15 {
		t.Error("busy intervals overlap on one compute stream")
	}
	if busy[0].Power != hw.V100.DynPower(prec.FP64) {
		t.Errorf("interval power %g, want %g", busy[0].Power, hw.V100.DynPower(prec.FP64))
	}
}

func TestPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(nil, 1, 1); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewPlatform(hw.SummitNode, 0, 1); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewPlatform(hw.SummitNode, 1, 7); err == nil {
		t.Error("7 GPUs per Summit rank accepted")
	}
	if _, err := NewPlatform(hw.SummitNode, 1, -1); err == nil || !strings.Contains(err.Error(), "negative GPUs per rank -1") {
		t.Errorf("-1 GPUs per rank: got %v, want its own negative-count message", err)
	}
	p, err := NewPlatform(hw.SummitNode, 4, 0)
	if err != nil || p.DevPerRank != 6 || p.NumDevices() != 24 {
		t.Errorf("default GPU count wrong: %+v, %v", p, err)
	}
	if p.RankOfDevice(13) != 2 || p.DeviceOf(2, 1) != 13 {
		t.Error("device/rank mapping wrong")
	}
}

// Run is the one structural check of a graph: a malformed one either fails
// the run with a *GraphError naming the task or leaves tasks unexecuted,
// and never panics.

func noBody(int) func() error { return nil }

func TestValidateAcceptsGoodGraph(t *testing.T) {
	g := bodyGraph(4, noBody)
	g.edge(0, 1)
	g.edge(0, 2)
	g.edge(1, 3)
	g.edge(2, 3)
	if st, _, err := Run(onePlat(t), g, Options{Audit: true}); err != nil || st.Tasks != 4 {
		t.Errorf("valid diamond ran %d of 4 tasks: %v", st.Tasks, err)
	}
}

// wantNeverReady checks that g's run ends with tasks that never became
// ready — a plain error, not a *GraphError.
func wantNeverReady(t *testing.T, what string, g *testGraph) {
	t.Helper()
	_, _, err := Run(onePlat(t), g, Options{})
	var ge *GraphError
	if err == nil || errors.As(err, &ge) || !strings.Contains(err.Error(), "never became ready") {
		t.Errorf("%s: err = %v, want tasks that never became ready", what, err)
	}
}

// wantGraphError checks that g's run fails with a *GraphError naming task.
func wantGraphError(t *testing.T, what string, g *testGraph, task int) {
	t.Helper()
	_, _, err := Run(onePlat(t), g, Options{})
	var ge *GraphError
	if !errors.As(err, &ge) || ge.Task != task {
		t.Errorf("%s: err = %v, want a *GraphError naming task %d", what, err, task)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := bodyGraph(3, noBody)
	g.edge(0, 1)
	g.edge(1, 2)
	g.edge(2, 0)
	wantNeverReady(t, "cycle", g)
}

func TestValidateDetectsDegreeMismatch(t *testing.T) {
	// Over-release: an edge task 1 does not count among its predecessors.
	g := bodyGraph(2, noBody)
	g.succs[0] = append(g.succs[0], 1)
	wantGraphError(t, "over-release", g, 1)
	// Under-release: a predecessor no edge stands for.
	g = bodyGraph(2, noBody)
	g.edge(0, 1)
	g.preds[1] = append(g.preds[1], 0)
	wantNeverReady(t, "under-release", g)
}

func TestValidateDetectsSelfLoopAndRange(t *testing.T) {
	g := bodyGraph(1, noBody)
	g.succs[0] = []int{0}
	wantGraphError(t, "self-loop", g, 0)
	// An out-of-range successor is reported by the task listing it, with
	// and without numeric bodies (whose executor releases successors too).
	withBody := func(int) func() error { return func() error { return nil } }
	for _, body := range []func(int) func() error{noBody, withBody} {
		for _, s := range []int{2, -1} {
			g := bodyGraph(2, body)
			g.edge(0, 1)
			g.succs[1] = []int{s}
			wantGraphError(t, fmt.Sprintf("successor %d (bodies %t)", s, body(0) != nil), g, 1)
		}
	}
	// Bodiless task 0 is still in flight when task 1's body starts the
	// executor, which counts the successors of tasks in flight.
	g = bodyGraph(2, withBody)
	g.specs[0].Body = nil
	g.succs[0] = []int{2}
	wantGraphError(t, "successor of a task in flight at the first body", g, 0)
}

func TestEngineInvariants(t *testing.T) {
	// On any run: per-device busy time ≤ makespan; energy ≥ idle × makespan.
	g := newTestGraph(10)
	g.initial[50] = 0
	for i := 0; i < 10; i++ {
		g.specs[i] = TaskSpec{Kind: hw.KindGemm, Device: i % 2, Prec: prec.FP64,
			Flops:  float64(1e8 * (i + 1)),
			Inputs: []InputSpec{{Data: 50, WireBytes: 1 << 20}},
			Output: OutputSpec{Data: DataID(100 + i), Bytes: 1 << 20}}
		if i > 0 {
			g.edge(i-1, i)
		}
	}
	p, _ := NewPlatform(hw.SummitNode, 1, 2)
	st, _, err := Run(p, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range st.Devices {
		if d.BusyTime > st.Makespan+1e-12 {
			t.Errorf("device %d busy %g exceeds makespan %g", i, d.BusyTime, st.Makespan)
		}
	}
	if st.Energy < hw.V100.IdleW*st.Makespan*2 {
		t.Errorf("energy %g below idle floor", st.Energy)
	}
	if st.AvgPower < 2*hw.V100.IdleW || st.AvgPower > 2*(hw.V100.TDP+hw.V100.TransferW) {
		t.Errorf("average power %g outside physical range", st.AvgPower)
	}
}
