package runtime

import (
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// The auditor must come up clean on the engine's own stress scenarios:
// memory-pressure eviction with writeback, cross-rank publishes, and both
// conversion directions.

func TestAuditCleanUnderEviction(t *testing.T) {
	node := *hw.SummitNode
	gpu := *hw.V100
	gpu.MemBytes = 10 << 20
	node.GPU = &gpu
	p, err := NewPlatform(&node, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGraph(3)
	g.initial[1] = 0
	g.initial[2] = 0
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
	st, _, err := Run(p, g, Options{Audit: true, Lookahead: 1})
	if err != nil {
		t.Fatalf("audited eviction run failed: %v", err)
	}
	if st.Devices[0].Writebacks == 0 {
		t.Fatal("scenario did not exercise writeback")
	}
	// Every tile here is FP64: the writebacks and re-fetches land in the
	// FP64 slots of the per-precision totals.
	if st.D2HByPrec[prec.FP64] != st.BytesD2H || st.H2DByPrec[prec.FP64] != st.BytesH2D {
		t.Errorf("FP64 bytes D2H %d of %d, H2D %d of %d", st.D2HByPrec[prec.FP64], st.BytesD2H, st.H2DByPrec[prec.FP64], st.BytesH2D)
	}
	if st.Devices[0].LRUMisses == 0 || st.Devices[0].LRUHits != 0 {
		t.Errorf("LRU stats hits=%d misses=%d; re-fetch scenario should only miss",
			st.Devices[0].LRUHits, st.Devices[0].LRUMisses)
	}
}

func TestAuditCleanOnPublishAndConversions(t *testing.T) {
	p, err := NewPlatform(hw.SummitNode, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGraph(2)
	g.specs[0] = TaskSpec{
		Kind: hw.KindTrsm, Device: 0, Prec: prec.FP32, Flops: 1e9,
		Output: OutputSpec{Data: 9, Bytes: 4 << 20},
		Publish: &PublishSpec{
			WireBytes: 2 << 20, WirePrec: prec.FP16,
			ConvertElems: 1 << 20, ConvFrom: prec.FP32, ConvTo: prec.FP16,
			RemoteRanks: []int{1},
		},
	}
	g.specs[1] = TaskSpec{
		Kind: hw.KindGemm, Device: 1, Prec: prec.FP64, Flops: 1e9,
		Inputs: []InputSpec{{Data: 9, WireBytes: 2 << 20, WirePrec: prec.FP16,
			ConvertElems: 1 << 20, ConvFrom: prec.FP16, ConvTo: prec.FP64}},
		Output: OutputSpec{Data: -1},
	}
	g.edge(0, 1)
	st, _, err := Run(p, g, Options{Audit: true})
	if err != nil {
		t.Fatalf("audited publish run failed: %v", err)
	}
	if st.SenderConversions != 1 || st.ReceiverConversions != 1 {
		t.Fatal("scenario did not exercise both conversion directions")
	}
	// The per-precision totals must bucket the wire traffic as FP16.
	if v := st.NetByPrec[prec.FP16]; v != 2<<20 {
		t.Errorf("NetByPrec[FP16] = %d, want %d", v, 2<<20)
	}
	// The trace keeps every stream apart: dev0 converts, runs its kernel
	// and publishes; rank 0's NIC sends once.
	d := st.Trace.Devices[0]
	if len(d.Kernel) != 1 || len(d.Convert) != 1 || len(d.D2H) != 1 || len(d.H2D) != 0 {
		t.Errorf("dev0 stream counts kernel=%d conv=%d h2d=%d d2h=%d",
			len(d.Kernel), len(d.Convert), len(d.H2D), len(d.D2H))
	}
	if d.GPU != hw.V100.Name || d.Rank != 0 || st.Trace.Devices[1].Rank != 1 {
		t.Errorf("device identity %q rank %d / rank %d", d.GPU, d.Rank, st.Trace.Devices[1].Rank)
	}
	if nic := st.Trace.NICs[0]; len(nic) != 1 || nic[0].Bytes != 2<<20 {
		t.Errorf("NIC intervals %+v, want one 2 MiB send", nic)
	}
}

func TestAuditForcesTrace(t *testing.T) {
	g := newTestGraph(1)
	g.specs[0] = TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e8,
		Output: OutputSpec{Data: 1, Bytes: 1 << 20}}
	st, _, err := Run(onePlat(t), g, Options{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil || len(st.Trace.Tasks) != 1 {
		t.Error("Audit did not force Trace on")
	}
	if st, _, err = Run(onePlat(t), g, Options{}); err != nil || st.Trace != nil {
		t.Errorf("untraced run: trace %v, err %v; want no trace", st.Trace, err)
	}
}
