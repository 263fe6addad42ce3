package runtime

import (
	"reflect"
	"sort"
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// FuzzMultiRank is the property test of the event loop on multi-rank
// graphs: arbitrary rank partitions (task→device assignments drawn from the
// fuzz bytes) and arbitrary communication latencies (scaled NIC and
// host-link specs) must run to completion under the auditor with every task
// executed exactly once, no task starting before its predecessors end, and
// a second run of a freshly built graph reproducing digest, Stats and traced
// schedule exactly.
func FuzzMultiRank(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(0), []byte{0x00, 0x81, 0x3c})
	f.Add(uint8(3), uint8(2), uint8(7), []byte{0x12, 0x34, 0x56, 0x78, 0x9a})
	f.Add(uint8(4), uint8(1), uint8(15), []byte("cross-rank-chains"))
	f.Add(uint8(4), uint8(2), uint8(3), []byte{0xff, 0x00, 0xff, 0x00, 0x7e, 0x81, 0x42})

	f.Fuzz(func(t *testing.T, ranksB, gprB, latB uint8, data []byte) {
		ranks := 2 + int(ranksB%3) // 2..4: cross-rank edges need multiple ranks
		gpr := 1 + int(gprB%2)
		ndev := ranks * gpr

		// Scale the communication latencies and bandwidths: the properties
		// must hold for fast and slow interconnects alike.
		node := *hw.SummitNode
		gpu := *node.GPU
		gpu.LinkLatency *= float64(1 + latB%16)
		node.GPU = &gpu
		node.NetLat *= float64(1 + latB%16)
		node.NetBw /= float64(1 + latB/16)

		n := len(data)
		if n > 48 {
			n = 48
		}
		if n == 0 {
			return
		}

		// Each byte decodes one task: low three bits pick the tile read, the
		// next three the tile written (read-after-write and write-after-read
		// chains cross ranks whenever the partition says so), and the whole
		// byte picks the device — the fuzzed rank partition. A first pass
		// legalizes the partition (a read with no prior writer must run on
		// the datum's home rank) and derives each producer's remote consumer
		// set, which becomes its broadcast Publish — the engine refuses
		// cross-rank reads the producer never published.
		const pool = 8
		type fuzzOp struct {
			dev         int
			read, write DataID
			kind        hw.KernelKind
			prec        prec.Precision
			flops       float64
		}
		ops := make([]fuzzOp, n)
		for i := 0; i < n; i++ {
			b := data[i]
			ops[i] = fuzzOp{
				dev: int(b) % ndev, read: DataID(b & 7), write: DataID((b >> 3) & 7),
				kind: hw.KindGemm, prec: prec.FP64, flops: 1e6 * float64(1+b%5),
			}
			if b&0x20 != 0 {
				ops[i].kind, ops[i].prec = hw.KindSyrk, prec.FP32
			}
		}
		lastWriter := map[DataID]int{}
		remote := make([]map[int]bool, n)
		needPub := make([]bool, n)
		rankOf := func(i int) int { return ops[i].dev / gpr }
		for i := range ops {
			if w, ok := lastWriter[ops[i].read]; ok {
				if ops[i].dev != ops[w].dev {
					// A consumer on any other device reads the output from
					// host memory, which only a publish (D2H) provides.
					needPub[w] = true
				}
				if r := rankOf(i); r != rankOf(w) {
					if remote[w] == nil {
						remote[w] = map[int]bool{}
					}
					remote[w][r] = true
				}
			} else {
				// Unwritten datum: pin the reader to the datum's home rank.
				ops[i].dev = int(ops[i].read)%ranks*gpr + ops[i].dev%gpr
			}
			lastWriter[ops[i].write] = i
		}

		build := func() *testGraph {
			initial := map[DataID]int{}
			for d := 0; d < pool; d++ {
				initial[DataID(d)] = d % ranks
			}
			specs := make([]TaskSpec, n)
			for i, o := range ops {
				specs[i] = TaskSpec{Kind: o.kind, Device: o.dev, Prec: o.prec, Flops: o.flops,
					Inputs: []InputSpec{{Data: o.read, WireBytes: 4096, WirePrec: prec.FP32}},
					Output: OutputSpec{Data: o.write, Bytes: 8192, Prec: prec.FP64}}
				if needPub[i] || len(remote[i]) > 0 {
					var rr []int
					for r := range remote[i] {
						rr = append(rr, r)
					}
					sort.Ints(rr)
					specs[i].Publish = &PublishSpec{WireBytes: 8192, WirePrec: prec.FP64, RemoteRanks: rr}
				}
			}
			return newDataflowGraph(specs, initial)
		}

		plat, err := NewPlatform(&node, ranks, gpr)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (Stats, []ScheduledTask, *testGraph) {
			g := build()
			st, _, err := Run(plat, g, Options{Audit: true}) // implies Trace
			if err != nil {
				t.Fatal(err)
			}
			return st, st.Trace.Tasks, g
		}

		st, trace, g := run()
		if st.Tasks != n || len(trace) != n {
			t.Fatalf("%d tasks: Stats.Tasks=%d, %d schedule entries", n, st.Tasks, len(trace))
		}
		at := make([]*ScheduledTask, n)
		for i := range trace {
			e := &trace[i]
			if at[e.ID] != nil {
				t.Fatalf("task %d scheduled twice: %+v", e.ID, *e)
			}
			at[e.ID] = e
		}
		var succ []int
		for id := 0; id < n; id++ {
			succ = g.Successors(id, succ[:0])
			for _, s := range succ {
				if at[s].Start < at[id].End {
					t.Errorf("task %d starts at %g, before predecessor %d ends at %g", s, at[s].Start, id, at[id].End)
				}
			}
		}

		st2, trace2, _ := run()
		if !reflect.DeepEqual(st2, st) { // ScheduleDigest included
			t.Errorf("rerun stats diverged\nfirst:  %+v\nrerun:  %+v", st, st2)
		}
		if !reflect.DeepEqual(trace2, trace) {
			t.Errorf("rerun schedule differs from the first run's (%d vs %d entries)", len(trace2), len(trace))
		}
	})
}
