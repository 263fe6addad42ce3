package runtime

import (
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// FuzzValidate builds graphs from arbitrary read/write sequences, with edges
// inferred in program order, and checks that (a) every successor is a later
// task, so program order admits no cycle, and (b) the engine — the one
// structural check of a graph — executes them to completion under the
// invariant auditor: in-degrees that disagreed with the successor lists
// would leave a task unexecuted or fail the run with a *GraphError.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x12, 0x34, 0x56})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x81, 0x7e})
	f.Add([]byte("read-write-interleave"))

	f.Fuzz(func(t *testing.T, data []byte) {
		const pool = 8 // distinct tiles
		initial := map[DataID]int{}
		for d := 0; d < pool; d++ {
			initial[DataID(d)] = 0
		}
		// Each byte adds one task: the low three bits pick the tile it
		// reads, the next three the tile it writes, bit 6 adds a second read,
		// bit 7 adds a receiver-side conversion. Capped to keep runs small.
		n := len(data)
		if n > 64 {
			n = 64
		}
		specs := make([]TaskSpec, n)
		for i := 0; i < n; i++ {
			b := data[i]
			read := DataID(b & 7)
			inputs := []InputSpec{{Data: read, WireBytes: 4096, WirePrec: prec.FP32}}
			if b&0x40 != 0 {
				inputs = append(inputs, InputSpec{
					Data: (read + 1) % pool, WireBytes: 2048, WirePrec: prec.FP16,
				})
			}
			if b&0x80 != 0 {
				inputs[0].ConvertElems = 512
				inputs[0].ConvFrom, inputs[0].ConvTo = prec.FP16, prec.FP32
			}
			specs[i] = TaskSpec{
				Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e6, Inputs: inputs,
				Output: OutputSpec{Data: DataID((b >> 3) & 7), Bytes: 8192, Prec: prec.FP64},
			}
		}
		g := newDataflowGraph(specs, initial)

		var buf []int
		for id := 0; id < g.NumTasks(); id++ {
			buf = g.Successors(id, buf[:0])
			for _, s := range buf {
				if s <= id {
					t.Fatalf("task %d lists non-forward successor %d", id, s)
				}
			}
		}
		if g.NumTasks() == 0 {
			return
		}
		plat, err := NewPlatform(hw.SummitNode, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := Run(plat, g, Options{Audit: true})
		if err != nil {
			t.Fatalf("audited run failed: %v", err)
		}
		if st.Tasks != g.NumTasks() {
			t.Fatalf("executed %d of %d tasks", st.Tasks, g.NumTasks())
		}
	})
}
