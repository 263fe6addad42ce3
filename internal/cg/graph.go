// Package cg implements the iterative solver backend: a Jacobi-
// preconditioned conjugate gradient on the tiled covariance matrix, with
// per-iteration precision switching. Every iteration is emitted as engine
// tasks — a tile-parallel SpMV chain per segment, FP64 dot-product
// reductions, and the vector updates — so communication links, scheduling
// policies, broadcast topologies and the auditor all apply to it
// unchanged. Iterations are grouped into fixed-size chunks;
// each chunk is one engine run, and convergence is checked
// deterministically at chunk boundaries on the virtual clock.
// See DESIGN.md §3.2 for the DAG shape and the precision-switch rule.
package cg

import (
	"fmt"
	"sync/atomic"

	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/solver"
	"geompc/internal/tile"
)

// Task opcodes of one iteration, in dependency order.
const (
	opMV   = iota // y_i += A(i,j)·p_j — the SpMV chain, one task per tile
	opDot         // segment partial of pᵀy
	opRed1        // α = ρ/(pᵀy), broadcast
	opUpd         // x += αp, r -= αy, z = M⁻¹r
	opDot2        // segment partials of zᵀr and rᵀr
	opRed2        // β = ρ'/ρ and the residual check, broadcast
	opPupd        // p' = z + βp, broadcast at the next iteration's precision
)

// ids lays one chunk's tasks out iteration-major: nt² SpMV tasks, then the
// two reduction trees (nt+1 tasks each) and the 2·nt vector updates.
type ids struct {
	nt, iters int
	per       int // tasks per iteration: nt² + 4·nt + 2
	total     int
}

func newIDs(nt, iters int) ids {
	per := nt*nt + 4*nt + 2
	return ids{nt: nt, iters: iters, per: per, total: iters * per}
}

func (s ids) mv(t, i, j int) int { return t*s.per + i*s.nt + j }
func (s ids) dot(t, i int) int   { return t*s.per + s.nt*s.nt + i }
func (s ids) red1(t int) int     { return t*s.per + s.nt*s.nt + s.nt }
func (s ids) upd(t, i int) int   { return t*s.per + s.nt*s.nt + s.nt + 1 + i }
func (s ids) dot2(t, i int) int  { return t*s.per + s.nt*s.nt + 2*s.nt + 1 + i }
func (s ids) red2(t int) int     { return t*s.per + s.nt*s.nt + 3*s.nt + 1 }
func (s ids) pupd(t, i int) int  { return t*s.per + s.nt*s.nt + 3*s.nt + 2 + i }

// decode splits a task id into (op, t, i, j); i/j are -1 where unused.
func (s ids) decode(id int) (op, t, i, j int) {
	t = id / s.per
	rem := id % s.per
	switch {
	case rem < s.nt*s.nt:
		return opMV, t, rem / s.nt, rem % s.nt
	case rem < s.nt*s.nt+s.nt:
		return opDot, t, rem - s.nt*s.nt, -1
	case rem == s.nt*s.nt+s.nt:
		return opRed1, t, -1, -1
	case rem < s.nt*s.nt+2*s.nt+1:
		return opUpd, t, rem - s.nt*s.nt - s.nt - 1, -1
	case rem < s.nt*s.nt+3*s.nt+1:
		return opDot2, t, rem - s.nt*s.nt - 2*s.nt - 1, -1
	case rem == s.nt*s.nt+3*s.nt+1:
		return opRed2, t, -1, -1
	default:
		return opPupd, t, rem - s.nt*s.nt - 3*s.nt - 2, -1
	}
}

// chunkParams freezes one chunk's shape: the iteration count, each
// iteration's execution precision, and the wire format every p generation
// travels in (pwire[0] is the incoming vector's format — decided by the
// previous chunk's outgoing publish — and pwire[iters] the outgoing one).
type chunkParams struct {
	iters int
	base  int // global iteration index of local t=0 (labeling only)
	// precs[t] is iteration t's SpMV execution precision.
	precs []prec.Precision
	// pwire[t] is the wire element format of p(t); len iters+1.
	pwire []prec.Precision
}

// graph is the runtime.Graph of one chunk.
type graph struct {
	ids
	desc  tile.Desc
	maps  *precmap.Maps
	plat  *runtime.Platform
	strat solver.Strategy
	cp    chunkParams

	st *state // nil in phantom mode

	// err is shared (by pointer) across a solve's chunk graphs: any chunk's
	// numeric failure (CG breakdown) is the solve's failure.
	err *atomic.Value

	rankSeen []int64 // scratch: per-rank visit stamps for RemoteRanks dedupe
	stamp    int64
}

func (g *graph) NumTasks() int { return g.total }

// Data ids: the nt² tile block first (dense, like cholesky), then the
// vector generations — p(t,·) for t∈[0,iters], the y accumulators,
// the (x,r,z) state bundles for t∈[-1,iters-1), and the scalar slots.
func (g *graph) tileID(i, j int) runtime.DataID {
	return runtime.DataID(int64(i)*int64(g.nt) + int64(j))
}

func (g *graph) vecBase() int64 { return int64(g.nt) * int64(g.nt) }

func (g *graph) pID(t, i int) runtime.DataID {
	return runtime.DataID(g.vecBase() + int64(t*g.nt+i))
}

func (g *graph) yID(t, i int) runtime.DataID {
	return runtime.DataID(g.vecBase() + int64((g.iters+1)*g.nt) + int64(t*g.nt+i))
}

func (g *graph) stateID(t, i int) runtime.DataID {
	return runtime.DataID(g.vecBase() + int64((2*g.iters+1)*g.nt) + int64((t+1)*g.nt+i))
}

func (g *graph) d1ID(t, i int) runtime.DataID {
	return runtime.DataID(g.vecBase() + int64((3*g.iters+2)*g.nt) + int64(t*g.nt+i))
}

func (g *graph) d2ID(t, i int) runtime.DataID {
	return runtime.DataID(g.vecBase() + int64((4*g.iters+2)*g.nt) + int64(t*g.nt+i))
}

func (g *graph) aID(t int) runtime.DataID {
	return runtime.DataID(g.vecBase() + int64((5*g.iters+2)*g.nt) + int64(t))
}

func (g *graph) bID(t int) runtime.DataID {
	return runtime.DataID(g.vecBase() + int64((5*g.iters+2)*g.nt) + int64(g.iters+t))
}

// DataIDBound implements runtime.DataBounder, letting the engine index
// host availability densely.
func (g *graph) DataIDBound() int64 {
	return g.vecBase() + int64((5*g.iters+2)*g.nt) + int64(2*g.iters)
}

// mvTile returns the stored tile the SpMV step (i,j) reads: the lower tile
// (max,min), transposed when j > i (Σ is symmetric, lower stored).
func mvTile(i, j int) (a, b int, trans bool) {
	if j > i {
		return j, i, true
	}
	return i, j, false
}

// deviceOf is owner-computes placement, identical to the direct backend's:
// 2D block-cyclic ranks, round-robin over the rank's GPUs.
func (g *graph) deviceOf(i, j int) int {
	rank := g.desc.RankOf(i, j)
	local := 0
	if g.plat.DevPerRank > 1 {
		local = (i/g.desc.P + j/g.desc.Q) % g.plat.DevPerRank
	}
	return g.plat.DeviceOf(rank, local)
}

// mvDevice is the device of SpMV step (i,j): the owner of its tile.
func (g *graph) mvDevice(i, j int) int {
	a, b, _ := mvTile(i, j)
	return g.deviceOf(a, b)
}

// segDevice is the device owning segment i's vector state: the diagonal
// tile's owner.
func (g *graph) segDevice(i int) int { return g.deviceOf(i, i) }

func (g *graph) segDim(i int) int     { return g.desc.TileDim(i) }
func (g *graph) segBytes(i int) int64 { return int64(g.segDim(i)) * 8 }

// NumPredecessors implements runtime.Graph. Cross-iteration data flows
// (p, the state bundle) are covered transitively by the reduction chain —
// every task of iteration t+1 is downstream of RED2(t) — so only the
// direct release edges are counted.
func (g *graph) NumPredecessors(id int) int {
	op, t, _, j := g.decode(id)
	switch op {
	case opMV:
		n := 0
		if j > 0 {
			n++ // the chain predecessor MV(t,i,j-1)
		}
		if t > 0 {
			n++ // PUPD(t-1,j) produced p(t,j)
		}
		return n
	case opDot:
		return 1 // MV(t,i,nt-1)
	case opRed1:
		return g.nt // DOT(t,·)
	case opUpd:
		return 1 // RED1(t)
	case opDot2:
		return 1 // UPD(t,i)
	case opRed2:
		return g.nt // DOT2(t,·)
	default: // opPupd
		return 1 // RED2(t)
	}
}

// Successors implements runtime.Graph, mirroring NumPredecessors exactly.
func (g *graph) Successors(id int, buf []int) []int {
	op, t, i, j := g.decode(id)
	switch op {
	case opMV:
		if j < g.nt-1 {
			buf = append(buf, g.mv(t, i, j+1))
		} else {
			buf = append(buf, g.dot(t, i))
		}
	case opDot:
		buf = append(buf, g.red1(t))
	case opRed1:
		for k := 0; k < g.nt; k++ {
			buf = append(buf, g.upd(t, k))
		}
	case opUpd:
		buf = append(buf, g.dot2(t, i))
	case opDot2:
		buf = append(buf, g.red2(t))
	case opRed2:
		for k := 0; k < g.nt; k++ {
			buf = append(buf, g.pupd(t, k))
		}
	case opPupd:
		if t < g.iters-1 {
			for k := 0; k < g.nt; k++ {
				buf = append(buf, g.mv(t+1, k, i))
			}
		}
	}
	return buf
}

// InitialData implements runtime.Graph: every lower tile starts host-
// resident at its owning rank, the incoming search direction p(0,·) is
// host-resident at every rank that consumes it (its broadcast was charged
// by the previous chunk's final PUPD — or, for the first chunk, by the
// untimed setup phase, like the direct backend's matrix generation), and
// the (x,r,z) bundles sit at their segment's rank.
func (g *graph) InitialData(visit func(d runtime.DataID, rank int)) {
	for i := 0; i < g.nt; i++ {
		for j := 0; j <= i; j++ {
			visit(g.tileID(i, j), g.desc.RankOf(i, j))
		}
	}
	seen := make([]bool, g.plat.Ranks)
	for j := 0; j < g.nt; j++ {
		for r := range seen {
			seen[r] = false
		}
		// p(0,j) feeds the SpMV column j on every tile owner's rank, and
		// its own segment rank (DOT/UPD/PUPD).
		seen[g.plat.RankOfDevice(g.segDevice(j))] = true
		visit(g.pID(0, j), g.plat.RankOfDevice(g.segDevice(j)))
		for i := 0; i < g.nt; i++ {
			r := g.plat.RankOfDevice(g.mvDevice(i, j))
			if !seen[r] {
				seen[r] = true
				visit(g.pID(0, j), r)
			}
		}
		visit(g.stateID(-1, j), g.plat.RankOfDevice(g.segDevice(j)))
	}
}

// priority runs earlier iterations (and within one, earlier pipeline
// stages) first — the iteration chain is the critical path.
func (g *graph) priority(id int) int64 { return int64(g.total - id) }

// consumerSpread collects the distinct ranks (≠ the producer's) among the
// devices listed by visit — the broadcast targets of a publish. Appends to
// buf (pass a recycled slice to stay allocation-free).
func (g *graph) consumerSpread(buf []int, prodDev int, devs func(visit func(dev int))) []int {
	g.stamp++
	prodRank := g.plat.RankOfDevice(prodDev)
	//geompc:nolint hotalloc visitor callback never escapes devs; Go keeps non-escaping closures off the heap
	devs(func(dev int) {
		r := g.plat.RankOfDevice(dev)
		if r == prodRank {
			return
		}
		if g.rankSeen[r] != g.stamp {
			g.rankSeen[r] = g.stamp
			buf = append(buf, r)
		}
	})
	return buf
}

// reusePublish hands back the spec's recycled PublishSpec or a fresh one.
func reusePublish(s *runtime.TaskSpec) *runtime.PublishSpec {
	if p := s.Publish; p != nil {
		return p
	}
	return &runtime.PublishSpec{} //geompc:nolint hotalloc first fill of the spec slot; the TaskSpec recycles it on every later emit
}

// Spec implements runtime.Graph.
func (g *graph) Spec(id int, s *runtime.TaskSpec) {
	op, t, i, j := g.decode(id)
	switch op {
	case opMV:
		g.specMV(s, id, t, i, j)
		s.Body = g.mvBody(t, i, j)
	case opDot:
		s.Kind = hw.KindGemm
		s.Device = g.segDevice(i)
		s.Prec = prec.FP64
		s.Flops = 2 * float64(g.segDim(i))
		s.Priority = g.priority(id)
		s.Inputs = append(s.Inputs[:0],
			g.vecInput(g.pID(t, i), g.segDim(i), g.cp.pwire[t]),
			g.vecInput(g.yID(t, i), g.segDim(i), prec.FP64))
		s.Output = runtime.OutputSpec{Data: g.d1ID(t, i), Bytes: 8, Prec: prec.FP64}
		s.Publish = g.scalarPublish(s, s.Device, 0)
		s.Body = g.dotBody(t, i)
	case opRed1:
		//geompc:nolint hotalloc index-mapper callback never escapes specReduce; Go keeps non-escaping closures off the heap
		g.specReduce(s, id, g.aID(t), func(k int) runtime.DataID { return g.d1ID(t, k) })
		s.Body = g.red1Body(t)
	case opUpd:
		s.Kind = hw.KindGemm
		s.Device = g.segDevice(i)
		s.Prec = prec.FP64
		s.Flops = 5 * float64(g.segDim(i))
		s.Priority = g.priority(id)
		s.Inputs = append(s.Inputs[:0],
			g.vecInput(g.aID(t), 1, prec.FP64),
			g.vecInput(g.yID(t, i), g.segDim(i), prec.FP64),
			g.vecInput(g.stateID(t-1, i), 3*g.segDim(i), prec.FP64),
			g.vecInput(g.pID(t, i), g.segDim(i), g.cp.pwire[t]))
		s.Output = runtime.OutputSpec{Data: g.stateID(t, i), Bytes: 3 * g.segBytes(i), Prec: prec.FP64}
		s.Publish = nil
		s.Body = g.updBody(t, i)
	case opDot2:
		s.Kind = hw.KindGemm
		s.Device = g.segDevice(i)
		s.Prec = prec.FP64
		s.Flops = 4 * float64(g.segDim(i))
		s.Priority = g.priority(id)
		s.Inputs = append(s.Inputs[:0],
			g.vecInput(g.stateID(t, i), 3*g.segDim(i), prec.FP64))
		s.Output = runtime.OutputSpec{Data: g.d2ID(t, i), Bytes: 16, Prec: prec.FP64}
		s.Publish = g.scalarPublish(s, s.Device, 1)
		s.Body = g.dot2Body(t, i)
	case opRed2:
		//geompc:nolint hotalloc index-mapper callback never escapes specReduce; Go keeps non-escaping closures off the heap
		g.specReduce(s, id, g.bID(t), func(k int) runtime.DataID { return g.d2ID(t, k) })
		s.Body = g.red2Body(t)
	case opPupd:
		g.specPupd(s, id, t, i)
		s.Body = g.pupdBody(t, i)
	}
	s.ID = id
}

// specMV fills the spec of one SpMV chain step — the hot emit path of the
// CG inner loop: NT² of these per iteration, refilled allocation-free.
//
//geompc:hot
func (g *graph) specMV(s *runtime.TaskSpec, id, t, i, j int) {
	a, b, _ := mvTile(i, j)
	td := g.desc // value copy: binding the TileDim method would allocate its closure
	execFmt := prec.Wire(g.cp.precs[t])
	s.Kind = hw.KindGemm
	s.Device = g.deviceOf(a, b)
	s.Prec = g.cp.precs[t]
	s.Flops = 2 * float64(td.TileDim(i)) * float64(td.TileDim(j))
	s.Priority = g.priority(id)

	s.Inputs = s.Inputs[:0]
	// The stored tile, traveling at its storage wire format.
	tileWire := prec.Wire(g.maps.Storage[a][b])
	in := runtime.InputSpec{
		Data:      g.tileID(a, b),
		WireBytes: int64(td.TileDim(a)) * int64(td.TileDim(b)) * int64(tileWire.InputBytes()),
		WirePrec:  tileWire,
	}
	if tileWire != execFmt {
		in.ConvertElems = td.TileDim(a) * td.TileDim(b)
		in.ConvFrom, in.ConvTo = tileWire, execFmt
	}
	s.Inputs = append(s.Inputs, in)
	// The search direction segment, at its published wire format.
	pw := g.cp.pwire[t]
	in = runtime.InputSpec{
		Data:      g.pID(t, j),
		WireBytes: int64(td.TileDim(j)) * int64(pw.InputBytes()),
		WirePrec:  pw,
	}
	if pw != execFmt {
		in.ConvertElems = td.TileDim(j)
		in.ConvFrom, in.ConvTo = pw, execFmt
	}
	s.Inputs = append(s.Inputs, in)
	// The running accumulator, handed along the chain in FP64.
	if j > 0 {
		s.Inputs = append(s.Inputs, runtime.InputSpec{
			Data: g.yID(t, i), WireBytes: g.segBytes(i), WirePrec: prec.FP64,
		})
	}
	s.Output = runtime.OutputSpec{Data: g.yID(t, i), Bytes: g.segBytes(i), Prec: prec.FP64}

	// Publish the accumulator when the next chain step (or the closing
	// dot product) sits on another device.
	next := g.segDevice(i)
	if j < g.nt-1 {
		next = g.mvDevice(i, j+1)
	}
	if next == s.Device {
		s.Publish = nil
		return
	}
	pub := reusePublish(s)
	remote := pub.RemoteRanks[:0]
	if r := g.plat.RankOfDevice(next); r != g.plat.RankOfDevice(s.Device) {
		remote = append(remote, r)
	}
	*pub = runtime.PublishSpec{WireBytes: g.segBytes(i), WirePrec: prec.FP64, RemoteRanks: remote}
	s.Publish = pub
}

// specReduce fills a reduction root (RED1/RED2): it gathers one scalar
// slot per segment on device 0 and broadcasts the result to every segment
// owner.
func (g *graph) specReduce(s *runtime.TaskSpec, id int, out runtime.DataID, in func(k int) runtime.DataID) {
	s.Kind = hw.KindGemm
	s.Device = 0
	s.Prec = prec.FP64
	s.Flops = 2 * float64(g.nt)
	s.Priority = g.priority(id)
	s.Inputs = s.Inputs[:0]
	for k := 0; k < g.nt; k++ {
		s.Inputs = append(s.Inputs, runtime.InputSpec{Data: in(k), WireBytes: 16, WirePrec: prec.FP64})
	}
	s.Output = runtime.OutputSpec{Data: out, Bytes: 8, Prec: prec.FP64}
	pub := reusePublish(s)
	//geompc:nolint hotalloc device-enumerator callback never escapes consumerSpread; Go keeps non-escaping closures off the heap
	remote := g.consumerSpread(pub.RemoteRanks[:0], s.Device, func(visit func(dev int)) {
		for k := 0; k < g.nt; k++ {
			visit(g.segDevice(k))
		}
	})
	*pub = runtime.PublishSpec{WireBytes: 8, WirePrec: prec.FP64, RemoteRanks: remote}
	s.Publish = pub
}

// specPupd fills the direction update p' = z + βp, whose publish carries
// the next iteration's wire format: under Auto the producer down-casts
// once (STC) and every SpMV consumer reads the wire copy conversion-free;
// under ForceTTC the vector travels in FP64 and each consumer converts.
func (g *graph) specPupd(s *runtime.TaskSpec, id, t, i int) {
	s.Kind = hw.KindGemm
	s.Device = g.segDevice(i)
	s.Prec = prec.FP64
	s.Flops = 2 * float64(g.segDim(i))
	s.Priority = g.priority(id)
	s.Inputs = append(s.Inputs[:0],
		g.vecInput(g.bID(t), 1, prec.FP64),
		g.vecInput(g.stateID(t, i), 3*g.segDim(i), prec.FP64),
		g.vecInput(g.pID(t, i), g.segDim(i), g.cp.pwire[t]))
	s.Output = runtime.OutputSpec{Data: g.pID(t+1, i), Bytes: g.segBytes(i), Prec: prec.FP64}

	wire := g.cp.pwire[t+1]
	pub := reusePublish(s)
	//geompc:nolint hotalloc device-enumerator callback never escapes consumerSpread; Go keeps non-escaping closures off the heap
	remote := g.consumerSpread(pub.RemoteRanks[:0], s.Device, func(visit func(dev int)) {
		for k := 0; k < g.nt; k++ {
			visit(g.mvDevice(k, i))
		}
	})
	*pub = runtime.PublishSpec{
		WireBytes:   int64(g.segDim(i)) * int64(wire.InputBytes()),
		WirePrec:    wire,
		RemoteRanks: remote,
	}
	if g.strat != solver.ForceTTC && wire != prec.FP64 {
		pub.ConvertElems = g.segDim(i)
		pub.ConvFrom, pub.ConvTo = prec.FP64, wire
	}
	s.Publish = pub
}

// vecInput reads a vector-generation datum resident with its consumer's
// segment: dots and updates run in FP64 on the retained copy, so no
// receiver conversion is charged (the SpMV consumers are the ones that
// convert — see specMV).
func (g *graph) vecInput(d runtime.DataID, elems int, wire prec.Precision) runtime.InputSpec {
	return runtime.InputSpec{Data: d, WireBytes: int64(elems) * int64(wire.InputBytes()), WirePrec: wire}
}

// scalarPublish publishes a dot partial toward the reduction root on
// device 0; extra widens the payload (DOT2 ships two scalars).
func (g *graph) scalarPublish(s *runtime.TaskSpec, dev, extra int) *runtime.PublishSpec {
	pub := reusePublish(s)
	remote := pub.RemoteRanks[:0]
	if g.plat.RankOfDevice(dev) != g.plat.RankOfDevice(0) {
		remote = append(remote, g.plat.RankOfDevice(0))
	}
	*pub = runtime.PublishSpec{WireBytes: int64(8 * (1 + extra)), WirePrec: prec.FP64, RemoteRanks: remote}
	return pub
}

// fail records the first numeric failure (CG breakdown).
func (g *graph) fail(err error) { g.err.CompareAndSwap(nil, err) }

// Err returns the first numeric failure of the run, if any.
func (g *graph) Err() error {
	if v := g.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

var _ runtime.Graph = (*graph)(nil)

// newGraph validates the chunk configuration and builds its task graph.
func newGraph(cfg solver.Config, cp chunkParams, st *state, err *atomic.Value) (*graph, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("cg: nil platform")
	}
	if cfg.Maps == nil {
		return nil, fmt.Errorf("cg: nil precision maps")
	}
	if cfg.Maps.NT != cfg.Desc.NT {
		return nil, fmt.Errorf("cg: precision map NT=%d does not match descriptor NT=%d", cfg.Maps.NT, cfg.Desc.NT)
	}
	g := &graph{
		ids:      newIDs(cfg.Desc.NT, cp.iters),
		desc:     cfg.Desc,
		maps:     cfg.Maps,
		plat:     cfg.Platform,
		strat:    cfg.Strategy,
		cp:       cp,
		st:       st,
		err:      err,
		rankSeen: make([]int64, cfg.Platform.Ranks),
	}
	return g, nil
}

// TaskName renders a chunk-local task id in the iteration notation, with
// iteration numbers offset by base (the chunk's first global iteration).
func TaskName(nt, iters, base, id int) string {
	s := newIDs(nt, iters)
	op, t, i, j := s.decode(id)
	t += base
	switch op {
	case opMV:
		return fmt.Sprintf("SPMV(%d,%d,%d)", t, i, j)
	case opDot:
		return fmt.Sprintf("DOT(%d,%d)", t, i)
	case opRed1:
		return fmt.Sprintf("ALPHA(%d)", t)
	case opUpd:
		return fmt.Sprintf("AXPY(%d,%d)", t, i)
	case opDot2:
		return fmt.Sprintf("RHO(%d,%d)", t, i)
	case opRed2:
		return fmt.Sprintf("BETA(%d)", t)
	default:
		return fmt.Sprintf("DIR(%d,%d)", t, i)
	}
}
