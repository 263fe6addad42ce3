package cholesky

import (
	"fmt"

	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/tile"
)

// graph is the runtime.Graph of one factorization.
type graph struct {
	ids
	desc tile.Desc
	maps *precmap.Maps // the maps the run executes: Config.Maps, or Maps.TTC() under ForceTTC
	plat *runtime.Platform

	mat *tile.Matrix // nil in phantom mode
	// wire holds the communicated representation of each published tile in
	// numeric mode (the STC down-cast copy, or the tile data itself under
	// TTC), indexed by desc.Index.
	wire [][]float64
	// ops caches the GEMM operand forms of the panel tiles in numeric mode,
	// one slot per (tile, view, kernel precision) — see operand.
	ops []operandSlot

	// tiles holds each tile's wire and storage footprint, indexed by
	// desc.Index (see newTileCosts).
	tiles []tileCost

	rankSeen []int64 // scratch: per-rank visit stamps for RemoteRanks dedupe
	stamp    int64
}

// tileCost is what moving or converting one tile costs under the maps:
// its bytes in the communication and storage precisions, the elements a
// conversion touches, and the two precisions.
type tileCost struct {
	wireBytes, storeBytes int64
	elems                 int
	comm, store           prec.Precision
}

// newTileCosts tabulates every lower tile's tileCost once per graph, so
// building a task's inputs, output and publish reads one record per tile.
func newTileCosts(d tile.Desc, maps *precmap.Maps) []tileCost {
	tiles := make([]tileCost, d.LowerTileCount())
	for i := 0; i < d.NT; i++ {
		for j := 0; j <= i; j++ {
			n, wp, sp := d.TileDim(i)*d.TileDim(j), maps.Comm[i][j], maps.Storage[i][j]
			tiles[d.Index(i, j)] = tileCost{prec.Bytes(n, wp), prec.Bytes(n, sp), n, wp, sp}
		}
	}
	return tiles
}

func (g *graph) NumTasks() int { return g.numTasks }

// deviceOf implements owner-computes task placement: every task runs on the
// device owning its output tile. Tiles distribute 2D block-cyclically over
// ranks, then round-robin over the rank's GPUs by local tile coordinates.
func (g *graph) deviceOf(i, j int) int {
	rank := g.desc.RankOf(i, j)
	local := 0
	if g.plat.DevPerRank > 1 {
		local = (i/g.desc.P + j/g.desc.Q) % g.plat.DevPerRank
	}
	return g.plat.DeviceOf(rank, local)
}

// output is the OutputSpec of a task writing tile (i,j): the tile in its
// storage precision.
func (g *graph) output(i, j int) runtime.OutputSpec {
	idx := g.desc.Index(i, j)
	t := &g.tiles[idx]
	return runtime.OutputSpec{Data: runtime.DataID(idx), Bytes: t.storeBytes, Prec: t.store.Format()}
}

// NumData implements runtime.Graph: one datum per lower tile.
func (g *graph) NumData() int { return g.desc.LowerTileCount() }

// NumPredecessors implements runtime.Graph: POTRF(k) waits for
// SYRK(k,k-1); TRSM(m,k) for POTRF(k) and GEMM(m,k,k-1); SYRK(m,k) for
// TRSM(m,k) and SYRK(m,k-1); GEMM(m,n,k) for TRSM(m,k), TRSM(n,k) and
// GEMM(m,n,k-1) — each list's last entry only when k > 0.
func (g *graph) NumPredecessors(id int) int {
	op, _, _, k := g.decode(id)
	return [...]int{hw.KindPotrf: 0, hw.KindTrsm: 1, hw.KindSyrk: 1, hw.KindGemm: 2}[op] + min(k, 1)
}

// Successors implements runtime.Graph.
func (g *graph) Successors(id int, buf []int) []int {
	op, m, n, k := g.decode(id)
	switch op {
	case hw.KindPotrf:
		for i := k + 1; i < g.nt; i++ {
			buf = append(buf, g.trsm(i, k))
		}
	case hw.KindTrsm:
		buf = append(buf, g.syrk(m, k))
		for j := k + 1; j < m; j++ {
			buf = append(buf, g.gemm(m, j, k))
		}
		for i := m + 1; i < g.nt; i++ {
			buf = append(buf, g.gemm(i, m, k))
		}
	case hw.KindSyrk:
		if k == m-1 {
			buf = append(buf, g.potrf(m))
		} else {
			buf = append(buf, g.syrk(m, k+1))
		}
	case hw.KindGemm:
		if k == n-1 {
			buf = append(buf, g.trsm(m, n))
		} else {
			buf = append(buf, g.gemm(m, n, k+1))
		}
	}
	return buf
}

// InitialData implements runtime.Graph: every lower tile starts host-
// resident at its owning rank (matrix generation phase, not timed).
func (g *graph) InitialData(visit func(d runtime.DataID, rank int)) {
	for i := 0; i < g.nt; i++ {
		for j := 0; j <= i; j++ {
			visit(runtime.DataID(g.desc.Index(i, j)), g.desc.RankOf(i, j))
		}
	}
}

// priority approximates the tile Cholesky critical path: panel k tasks
// outrank panel k+1 tasks; within a panel POTRF > TRSM > SYRK > GEMM, with
// GEMMs urgent in proportion to the panel they unblock.
func (g *graph) priority(op hw.KernelKind, m, n, k int) int64 {
	nt := int64(g.nt)
	switch op {
	case hw.KindPotrf:
		return (nt - int64(k)) * 4096 * 4
	case hw.KindTrsm:
		return (nt-int64(k))*4096*4 - 1024 - int64(m-k)
	case hw.KindSyrk:
		return (nt-int64(k))*4096*3 - int64(m)
	case hw.KindGemm:
		// GEMM(m,n,k) unblocks TRSM(m,n) at panel n.
		return (nt-int64(n))*4096*2 - int64(m)
	}
	panic("unreachable")
}

// consumerSpread collects the distinct ranks (≠ producer's) among the
// consumer tiles listed by visit — the network broadcast targets — in
// order of first occurrence. Results append to buf (pass a recycled slice
// to stay allocation-free). Neither tiles nor the visitor it is handed
// escapes, so both closures stay off the heap.
//
// A tile's rank cycles with period P down a column and Q along a row
// (tile.Desc.RankOf), so every rank of a column run first occurs within its
// first P tiles and every rank of a row run within its first Q: callers
// list only those, which gives the same ranks in the same order.
func (g *graph) consumerSpread(buf []int, prodDev int, tiles func(visit func(i, j int))) []int {
	g.stamp++
	prodRank := g.plat.RankOfDevice(prodDev)
	tiles(func(i, j int) {
		r := g.desc.RankOf(i, j)
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

// reusePublish hands back the spec's recycled PublishSpec (the engine
// returns completed specs with their allocations intact) or a fresh one.
func reusePublish(s *runtime.TaskSpec) *runtime.PublishSpec {
	if p := s.Publish; p != nil {
		return p
	}
	// First fill of the spec slot; the TaskSpec recycles it on every later emit.
	return &runtime.PublishSpec{}
}

// bd is the tile edge length as a float64 flop factor. A method, not a
// closure inside Spec: the emit path runs once per task and a closure could
// allocate on every call.
func (g *graph) bd(x int) float64 { return float64(g.desc.TileDim(x)) }

// Spec implements runtime.Graph. Each task's precision is read once from
// the maps and is both what the engine charges (s.Prec, the input
// conversions) and what the numeric body computes in.
func (g *graph) Spec(id int, s *runtime.TaskSpec) {
	op, m, n, k := g.decode(id)
	nt := g.nt
	s.Kind = op

	switch op {
	case hw.KindPotrf:
		s.Device = g.deviceOf(k, k)
		s.Prec = g.maps.Potrf(k)
		s.Flops = g.bd(k) * g.bd(k) * g.bd(k) / 3
		s.Priority = g.priority(op, k, 0, k)
		s.Inputs = s.Inputs[:0]
		s.Output = g.output(k, k)
		if k < nt-1 {
			pub := reusePublish(s)
			s.Publish = g.publish(pub, k, k, g.consumerSpread(pub.RemoteRanks[:0], s.Device, func(visit func(i, j int)) {
				for i := k + 1; i < min(nt, k+1+g.desc.P); i++ {
					visit(i, k)
				}
			}))
		} else {
			s.Publish = nil
		}
		s.Body = g.potrfBody(k)

	case hw.KindTrsm:
		s.Device = g.deviceOf(m, k)
		s.Prec = g.maps.Trsm(m, k)
		s.Flops = g.bd(m) * g.bd(k) * g.bd(k)
		s.Priority = g.priority(op, m, 0, k)
		s.Inputs = append(s.Inputs[:0], g.inputSpec(k, k, s.Prec))
		s.Output = g.output(m, k)
		pub := reusePublish(s)
		s.Publish = g.publish(pub, m, k, g.consumerSpread(pub.RemoteRanks[:0], s.Device, func(visit func(i, j int)) {
			visit(m, m) // SYRK
			for j := k + 1; j < min(m, k+1+g.desc.Q); j++ {
				visit(m, j)
			}
			for i := m + 1; i < min(nt, m+1+g.desc.P); i++ {
				visit(i, m)
			}
		}))
		s.Body = g.trsmBody(m, k, s.Prec)

	case hw.KindSyrk:
		s.Device = g.deviceOf(m, m)
		s.Prec = g.maps.Syrk(m, k)
		s.Flops = g.bd(m) * g.bd(m) * g.bd(k)
		s.Priority = g.priority(op, m, 0, k)
		s.Inputs = append(s.Inputs[:0], g.inputSpec(m, k, s.Prec))
		s.Output = g.output(m, m)
		s.Publish = nil
		s.Body = g.syrkBody(m, k, s.Prec)

	case hw.KindGemm:
		s.Device = g.deviceOf(m, n)
		s.Prec = g.maps.Gemm(m, n, k)
		s.Flops = 2 * g.bd(m) * g.bd(n) * g.bd(k)
		s.Priority = g.priority(op, m, n, k)
		s.Inputs = append(s.Inputs[:0], g.inputSpec(m, k, s.Prec), g.inputSpec(n, k, s.Prec))
		s.Output = g.output(m, n)
		s.Publish = nil
		s.Body = g.gemmBody(m, n, k, s.Prec)
	}
}

// publish fills pub, the recycled PublishSpec of the task producing tile
// (i,j), for its broadcast to the remote ranks: the tile travels in its
// communication precision's format, and a sender-side conversion is
// charged when that differs from its storage format (STC, §VI).
func (g *graph) publish(pub *runtime.PublishSpec, i, j int, remote []int) *runtime.PublishSpec {
	t := &g.tiles[g.desc.Index(i, j)]
	*pub = runtime.PublishSpec{WireBytes: t.wireBytes, WirePrec: t.comm.Format(), RemoteRanks: remote}
	if t.comm.Format() != t.store.Format() {
		pub.ConvertElems = t.elems
		pub.ConvFrom, pub.ConvTo = t.store, t.comm
	}
	return pub
}

// inputSpec builds the InputSpec for a task running in precision p that
// reads tile (i,j) in the format the automated conversion strategy chose
// for its producer: once a tile is published, host memory holds the wire
// representation, so every (re-)fetch — same device after eviction,
// another device of the rank, or a remote rank — moves wire bytes. A
// receiver-side conversion is charged when the wire format differs from
// the format p consumes (the per-consumer conversion STC saves and TTC
// pays, §VI).
func (g *graph) inputSpec(i, j int, p prec.Precision) runtime.InputSpec {
	idx := g.desc.Index(i, j)
	t := &g.tiles[idx]
	wf := t.comm.Format()
	in := runtime.InputSpec{Data: runtime.DataID(idx), WireBytes: t.wireBytes, WirePrec: wf}
	if need := p.Format(); wf != need {
		in.ConvertElems = t.elems
		in.ConvFrom, in.ConvTo = wf, need
	}
	return in
}

var _ runtime.Graph = (*graph)(nil)

// validate checks that the maps fit the tiling and, for a numeric run, that
// the bodies can execute what the maps assign: tile data laid out as
// cfg.Desc, and the diagonal in FP64 (§V) — POTRF(k) and every SYRK(·,k)
// target tile (k,k), and linalg has no other POTRF or SYRK.
func (g *graph) validate() error {
	if g.maps.NT != g.desc.NT {
		return fmt.Errorf("cholesky: precision map NT=%d does not match descriptor NT=%d", g.maps.NT, g.desc.NT)
	}
	if g.mat == nil {
		return nil
	}
	if g.mat.Desc != g.desc {
		return fmt.Errorf("cholesky: matrix layout %+v does not match descriptor %+v", g.mat.Desc, g.desc)
	}
	for k := 0; k < g.desc.NT; k++ {
		if p := g.maps.Potrf(k); p != prec.FP64 {
			return fmt.Errorf("cholesky: diagonal tile (%d,%d) runs in %v; a numeric run needs FP64", k, k, p)
		}
	}
	return nil
}
