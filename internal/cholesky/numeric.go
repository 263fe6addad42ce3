package cholesky

import (
	"fmt"
	"sync"

	"geompc/internal/linalg"
	"geompc/internal/prec"
)

// Numeric bodies. The runtime starts a body once the bodies of the task's
// graph predecessors have returned — dataflow order, whatever the simulated
// clock says — so reads of producer tiles and wire copies are race-free. A
// POTRF that meets a non-positive pivot returns the error; the runtime then
// skips exactly its descendants (every later panel) and still runs the rest,
// so a non-SPD matrix gives the same partial factor and Result.Err every run.
//
// The wire copy models the automated conversion strategy's numerical
// effect: when a producer's communication precision is below its storage
// precision (STC), every consumer on another device receives the down-cast
// data; consumers on the producer's own device read the retained
// storage-precision copy, exactly as §VI describes ("retain for tasks on
// the same process, broadcast for the others").

// publishWire materializes the communicated representation of tile (i,j)
// after its producing task body ran. On one device there is none: every
// consumer is local (view), and newGraph leaves g.wire nil.
func (g *graph) publishWire(i, j int) {
	if g.wire == nil {
		return
	}
	t := g.mat.At(i, j)
	wp := g.maps.Comm[i][j].Format()
	idx := g.desc.Index(i, j)
	if wp == g.maps.Storage[i][j].Format() {
		g.wire[idx] = t.Data // TTC: what is sent is what is stored
		return
	}
	g.wire[idx] = linalg.Quantize(append([]float64(nil), t.Data...), wp)
}

// view returns tile (i,j)'s data as seen by a consumer on device dev.
func (g *graph) view(i, j, dev int) []float64 {
	if g.deviceOf(i, j) == dev {
		return g.mat.At(i, j).Data
	}
	w := g.wire[g.desc.Index(i, j)]
	if w == nil {
		panic(fmt.Sprintf("cholesky: wire copy of tile (%d,%d) read before publish", i, j))
	}
	return w
}

// operandSlot holds one converted GEMM/SYRK operand. Tile (i,k) is final
// once TRSM(i,k) has run and is read by SYRK(i,k) and up to NT−k−2 GEMMs;
// the first of them to arrive — bodies run concurrently — converts it under
// once, the others read the result, and releaseOperands frees it when the
// run has ended.
type operandSlot struct {
	once sync.Once
	op   *linalg.Operand // nil until built; the slots outnumber the operands 10:1
}

// operand returns tile (i,j) as a consumer on device dev sees it (view),
// quantized and packed for the GEMM and SYRK kernels of precision p. The local and
// the wire view are separate operands only where they are separate data:
// under TTC the wire copy is the tile itself.
func (g *graph) operand(i, j, dev int, p prec.Precision) *linalg.Operand {
	t := g.mat.At(i, j)
	data, wire := g.view(i, j, dev), 0
	if &data[0] != &t.Data[0] {
		wire = 1
	}
	s := &g.ops[(g.desc.Index(i, j)*2+wire)*prec.Count+int(p)]
	s.once.Do(func() {
		s.op = new(linalg.Operand)
		s.op.Pack(p, t.M, t.N, data, t.N, true)
	})
	return s.op
}

// releaseOperands returns every built operand's buffers to the linalg
// scratch pools. The caller runs it once no task body is in flight.
func (g *graph) releaseOperands() {
	for i := range g.ops {
		if s := &g.ops[i]; s.op != nil {
			s.op.Release()
			s.op = nil
		}
	}
}

// potrfBody, like the three builders below, returns a closure by design;
// phantom (pure-DES) graphs carry no matrix, get nil and stay
// allocation-free. Each body computes in the precision Spec charged; for
// POTRF that is FP64, which newGraph requires of a numeric run's diagonal.
func (g *graph) potrfBody(k int) func() error {
	if g.mat == nil {
		return nil
	}
	return func() error {
		t := g.mat.At(k, k)
		if err := linalg.PotrfLower(t.M, t.Data, t.N); err != nil {
			return fmt.Errorf("POTRF(%d): %w", k, err)
		}
		if k < g.nt-1 {
			g.publishWire(k, k)
		}
		return nil
	}
}

func (g *graph) trsmBody(m, k int, p prec.Precision) func() error {
	if g.mat == nil {
		return nil
	}
	return func() error {
		a := g.view(k, k, g.deviceOf(m, k))
		t := g.mat.At(m, k)
		bk := g.desc.TileDim(k)
		linalg.TrsmRLTPrec(p, t.M, bk, a, bk, t.Data, t.N)
		g.publishWire(m, k)
		return nil
	}
}

func (g *graph) syrkBody(m, k int, p prec.Precision) func() error {
	if g.mat == nil {
		return nil
	}
	return func() error {
		c := g.mat.At(m, m)
		linalg.SyrkLNPacked(-1, g.operand(m, k, g.deviceOf(m, m), p), 1, c.Data, c.N)
		return nil
	}
}

func (g *graph) gemmBody(m, n, k int, p prec.Precision) func() error {
	if g.mat == nil {
		return nil
	}
	return func() error {
		dev := g.deviceOf(m, n)
		c := g.mat.At(m, n)
		linalg.GemmNTPacked(-1, g.operand(m, k, dev, p), g.operand(n, k, dev, p), 1, c.Data, c.N)
		return nil
	}
}
