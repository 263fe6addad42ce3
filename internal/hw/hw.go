// Package hw models the hardware the paper evaluates on: Nvidia V100
// (Summit), A100 (Guyot) and H100 (Haxane) GPUs, their host links and the
// Summit interconnect. The models are calibrated to the paper's own
// numbers:
//
//   - Table I peak Tflop/s per precision format (with the §VII-A note that
//     FP64 on A100/H100 runs on tensor cores at the FP32 peak);
//   - Table II: moving a 2048² FP64 tile to a V100 takes 0.67 ms ⇒ 50 GB/s
//     host link; a 2048² FP64 GEMM takes 2.2 ms ⇒ GEMM at peak for tiles of
//     2048 and above;
//   - Fig 1d/Fig 8c: H100 PCIe sustains a noticeably lower fraction of its
//     GEMM peak than V100/A100;
//   - TDPs (300/400/350 W) bounding the power traces of Fig 10.
//
// Everything downstream (the runtime's discrete-event simulation, the
// energy accounting) is pure arithmetic over these specs, so the shape of
// the paper's performance results follows from the same flop/byte/watt
// bookkeeping the authors use to explain theirs.
package hw

import (
	"fmt"

	"geompc/internal/prec"
)

// KernelKind identifies a tile kernel class for efficiency modeling.
type KernelKind uint8

// Tile kernel classes of Algorithm 1; NumKinds counts them.
const (
	KindPotrf KernelKind = iota
	KindTrsm
	KindSyrk
	KindGemm
	NumKinds
)

var kindNames = [NumKinds]string{"POTRF", "TRSM", "SYRK", "GEMM"}

// String returns the class's name in the paper's notation ("GEMM", …).
func (k KernelKind) String() string { return kindNames[k] }

// GPUSpec describes one GPU generation.
type GPUSpec struct {
	Name string

	// peak dense throughput per precision, flop/s. Zero entries mean the
	// format is not supported (e.g. TF32 on V100).
	Peak [prec.Count]float64

	// FP64NonTensor is the classical FP64 pipeline peak (Table I's "FP64"
	// row); Peak[FP64] holds the effective rate, which uses tensor cores
	// on A100/H100 (§IV).
	FP64NonTensor float64

	// GemmEff is the sustained fraction of peak a large resident GEMM
	// achieves (Fig 1).
	GemmEff float64

	// KernelEff is the efficiency of each kernel class relative to GEMM;
	// panel kernels (POTRF) achieve a smaller fraction of peak.
	KernelEff [NumKinds]float64

	// LaunchOverhead is the fixed per-kernel launch latency, seconds.
	LaunchOverhead float64

	// Host link (H2D/D2H), bytes/s each direction, plus latency.
	H2DBw, D2HBw float64
	LinkLatency  float64

	// MemBytes is device memory capacity; MemBw its bandwidth (bounds the
	// datatype-conversion kernels, which are memory-bound).
	MemBytes int64
	MemBw    float64

	// Power model: idle draw, thermal design power, and the fraction of the
	// dynamic range (TDP − idle) each precision's compute draws (a zero
	// entry draws all of it).
	IdleW, TDP  float64
	PowerFactor [prec.Count]float64
	// TransferW is the extra power drawn while a host-link transfer is
	// in flight.
	TransferW float64
}

// fallbackLadder orders the substitute formats tried when the GPU lacks a
// requested one: FP16_32 → FP32 → FP64. Package-level so the hot
// KernelTime path ranges over it without materializing a slice.
var fallbackLadder = [3]prec.Precision{prec.FP16x32, prec.FP32, prec.FP64}

// SupportedPeak returns the effective peak flop/s for precision p. A format
// the GPU lacks runs at the peak of the first supported format on
// fallbackLadder with a smaller unit roundoff (FP64's if none): TF32 and
// BF16_32 GEMMs on V100 run at FP16_32's 125 Tflop/s.
func (g *GPUSpec) SupportedPeak(p prec.Precision) float64 {
	if v := g.Peak[p]; v != 0 {
		return v
	}
	for _, q := range fallbackLadder {
		if v := g.Peak[q]; v != 0 && q.Eps() < p.Eps() {
			return v
		}
	}
	return g.Peak[prec.FP64]
}

// Supports reports whether the GPU natively supports precision p.
func (g *GPUSpec) Supports(p prec.Precision) bool { return g.Peak[p] != 0 }

// KernelTime returns the simulated execution time of a tile kernel of the
// given class, precision and flop count, resident on the device.
func (g *GPUSpec) KernelTime(kind KernelKind, p prec.Precision, flops float64) float64 {
	eff := g.GemmEff * g.KernelEff[kind]
	rate := g.SupportedPeak(p) * eff
	return flops/rate + g.LaunchOverhead
}

// ConvertTime returns the time of an on-device datatype conversion of n
// elements between the two formats — a memory-bound pass reading the source
// and writing the destination width.
func (g *GPUSpec) ConvertTime(n int, from, to prec.Precision) float64 {
	bytes := float64(n) * float64(from.InputBytes()+to.InputBytes())
	return bytes/g.MemBw + g.LaunchOverhead
}

// DynPower returns the dynamic power (W above idle) drawn while a kernel of
// precision p runs.
func (g *GPUSpec) DynPower(p prec.Precision) float64 {
	f := g.PowerFactor[p]
	if f == 0 {
		f = 1
	}
	return (g.TDP - g.IdleW) * f
}

// LinkSpec is the timing/power model of one point-to-point transfer
// resource: a host-link direction or a rank's NIC. The runtime engine turns
// a LinkSpec into a simulated serial resource with occupancy and traced
// intervals.
type LinkSpec struct {
	Bw    float64 // bytes/s
	Lat   float64 // fixed per-transfer latency, seconds
	Power float64 // extra watts drawn while a transfer is in flight
}

// Time returns the transfer time of nbytes over the link.
func (l LinkSpec) Time(nbytes int64) float64 {
	return l.Lat + float64(nbytes)/l.Bw
}

// H2DLink is the host-to-device direction of the GPU's host link.
func (g *GPUSpec) H2DLink() LinkSpec {
	return LinkSpec{Bw: g.H2DBw, Lat: g.LinkLatency, Power: g.TransferW}
}

// D2HLink is the device-to-host direction of the GPU's host link.
func (g *GPUSpec) D2HLink() LinkSpec {
	return LinkSpec{Bw: g.D2HBw, Lat: g.LinkLatency, Power: g.TransferW}
}

// NICLink is the rank's network injection port.
func (n *NodeSpec) NICLink() LinkSpec {
	return LinkSpec{Bw: n.NetBw, Lat: n.NetLat}
}

// NodeSpec describes one compute node: identical GPUs plus the NIC that
// connects it to the rest of the machine.
type NodeSpec struct {
	Name    string
	GPUs    int
	GPU     *GPUSpec
	NetBw   float64 // injection bandwidth, bytes/s
	NetLat  float64 // per-message latency, seconds
	HostMem int64   // host memory, bytes (bounds matrix size, §VII-E)
}

// kernelEff is every predefined GPU's KernelEff.
var kernelEff = [NumKinds]float64{KindGemm: 1.0, KindSyrk: 0.88, KindTrsm: 0.72, KindPotrf: 0.35}

// Predefined GPU generations (§VII-A, Table I).
var (
	// V100: Summit's Tesla V100 (NVLink host link at 50 GB/s — the rate
	// implied by Table II).
	V100 = &GPUSpec{
		Name:          "V100",
		FP64NonTensor: 7.8e12,
		Peak: [prec.Count]float64{
			prec.FP64:    7.8e12,
			prec.FP32:    15.7e12,
			prec.FP16x32: 125e12,
			prec.FP16:    125e12,
		},
		GemmEff:        0.97,
		KernelEff:      kernelEff,
		LaunchOverhead: 5e-6,
		H2DBw:          50e9, D2HBw: 50e9, LinkLatency: 10e-6,
		MemBytes: 16 << 30, MemBw: 900e9,
		IdleW: 52, TDP: 300,
		PowerFactor: [prec.Count]float64{
			prec.FP64: 1.0, prec.FP32: 0.90, prec.FP16x32: 0.80, prec.FP16: 0.74,
		},
		TransferW: 25,
	}

	// A100: Guyot's A100-SXM4-80GB. FP64 runs on tensor cores (19.5 Tflop/s,
	// same as FP32 — §IV). Host link is PCIe gen4.
	A100 = &GPUSpec{
		Name:          "A100",
		FP64NonTensor: 9.7e12,
		Peak: [prec.Count]float64{
			prec.FP64:    19.5e12,
			prec.FP32:    19.5e12,
			prec.TF32:    156e12,
			prec.BF16x32: 312e12,
			prec.FP16x32: 312e12,
			prec.FP16:    312e12,
		},
		GemmEff:        0.95,
		KernelEff:      kernelEff,
		LaunchOverhead: 4e-6,
		H2DBw:          24e9, D2HBw: 24e9, LinkLatency: 8e-6,
		MemBytes: 80 << 30, MemBw: 2.0e12,
		IdleW: 62, TDP: 400,
		PowerFactor: [prec.Count]float64{
			prec.FP64: 1.0, prec.FP32: 0.97, prec.TF32: 0.85,
			prec.BF16x32: 0.80, prec.FP16x32: 0.80, prec.FP16: 0.74,
		},
		TransferW: 25,
	}

	// H100: Haxane's H100 PCIe. Sustains a lower fraction of its GEMM peak
	// (Fig 1d) and does not reach TDP even at full occupancy (§VII-E).
	H100 = &GPUSpec{
		Name:          "H100",
		FP64NonTensor: 25.6e12,
		Peak: [prec.Count]float64{
			prec.FP64:    51.2e12,
			prec.FP32:    51.2e12,
			prec.TF32:    378e12,
			prec.BF16x32: 756e12,
			prec.FP16x32: 756e12,
			prec.FP16:    756e12,
		},
		GemmEff:        0.76,
		KernelEff:      kernelEff,
		LaunchOverhead: 4e-6,
		H2DBw:          45e9, D2HBw: 45e9, LinkLatency: 8e-6,
		MemBytes: 80 << 30, MemBw: 2.0e12,
		IdleW: 58, TDP: 350,
		PowerFactor: [prec.Count]float64{
			prec.FP64: 0.88, prec.FP32: 0.85, prec.TF32: 0.75,
			prec.BF16x32: 0.70, prec.FP16x32: 0.70, prec.FP16: 0.65,
		},
		TransferW: 25,
	}
)

// Predefined nodes (§VII-A).
var (
	// SummitNode: 6×V100, dual-rail EDR InfiniBand.
	SummitNode = &NodeSpec{
		Name: "Summit", GPUs: 6, GPU: V100,
		NetBw: 23e9, NetLat: 1.5e-6, HostMem: 256 << 30,
	}
	// GuyotNode: 8×A100 single node.
	GuyotNode = &NodeSpec{
		Name: "Guyot", GPUs: 8, GPU: A100,
		NetBw: 23e9, NetLat: 1.5e-6, HostMem: 2063 << 30,
	}
	// HaxaneNode: 1×H100 PCIe; 63 GB of host memory bounds the largest
	// matrix (§VII-D).
	HaxaneNode = &NodeSpec{
		Name: "Haxane", GPUs: 1, GPU: H100,
		NetBw: 23e9, NetLat: 1.5e-6, HostMem: 63 << 30,
	}
)

// NodeByName returns the node spec for "Summit", "Guyot" or "Haxane".
func NodeByName(name string) (*NodeSpec, error) {
	switch name {
	case "Summit":
		return SummitNode, nil
	case "Guyot":
		return GuyotNode, nil
	case "Haxane":
		return HaxaneNode, nil
	}
	return nil, fmt.Errorf("hw: unknown node %q", name)
}
