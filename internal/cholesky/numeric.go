package cholesky

import (
	"fmt"

	"geompc/internal/linalg"
	"geompc/internal/prec"
)

// Numeric bodies. Each body runs when the engine processes the task, after
// all dependencies' bodies have completed, so reads of producer tiles and
// wire copies are race-free.
//
// The wire copy models the automated conversion strategy's numerical
// effect: when a producer's communication precision is below its storage
// precision (STC), every consumer on another device receives the down-cast
// data; consumers on the producer's own device read the retained
// storage-precision copy, exactly as §VI describes ("retain for tasks on
// the same process, broadcast for the others").

// publishWire materializes the communicated representation of tile (i,j)
// after its producing task body ran.
func (g *graph) publishWire(i, j int) {
	t := g.mat.At(i, j)
	wp := wireFormat(g.wirePrec(i, j))
	sp := wireFormat(g.maps.Storage[i][j])
	idx := i*(i+1)/2 + j
	if wp == sp {
		g.wire[idx] = t.Data // TTC: what is sent is what is stored
		return
	}
	g.wire[idx] = prec.QuantizeCopy(t.Data, wp)
}

// view returns tile (i,j)'s data as seen by a consumer on device dev.
func (g *graph) view(i, j, dev int) []float64 {
	if g.deviceOf(i, j) == dev {
		return g.mat.At(i, j).Data
	}
	w := g.wire[i*(i+1)/2+j]
	if w == nil {
		panic(fmt.Sprintf("cholesky: wire copy of tile (%d,%d) read before publish", i, j))
	}
	return w
}

// potrfBody, like the three builders below, returns a closure by design;
// phantom (pure-DES) graphs carry no matrix, get nil and stay
// allocation-free.
func (g *graph) potrfBody(k int) func() {
	if g.mat == nil {
		return nil
	}
	return func() {
		if g.Err() != nil {
			return
		}
		t := g.mat.At(k, k)
		p := g.maps.Kernel[k][k]
		var err error
		switch p {
		case prec.FP64:
			err = linalg.PotrfLower(t.M, t.Data, t.N)
		case prec.FP32:
			err = linalg.PotrfLower32(t.M, t.Data, t.N)
		default:
			err = fmt.Errorf("cholesky: POTRF cannot run in %v", p)
		}
		if err != nil {
			g.fail(fmt.Errorf("POTRF(%d): %w", k, err))
			return
		}
		if k < g.nt-1 {
			g.publishWire(k, k)
		}
	}
}

func (g *graph) trsmBody(m, k int) func() {
	if g.mat == nil {
		return nil
	}
	return func() {
		if g.Err() != nil {
			return
		}
		dev := g.deviceOf(m, k)
		a := g.view(k, k, dev)
		t := g.mat.At(m, k)
		bk := g.desc.TileDim(k)
		linalg.TrsmRLTPrec(g.trsmExec(m, k), t.M, bk, a, bk, t.Data, t.N)
		g.publishWire(m, k)
	}
}

func (g *graph) syrkBody(m, k int) func() {
	if g.mat == nil {
		return nil
	}
	return func() {
		if g.Err() != nil {
			return
		}
		dev := g.deviceOf(m, m)
		a := g.view(m, k, dev)
		c := g.mat.At(m, m)
		bk := g.desc.TileDim(k)
		linalg.SyrkLNPrec(g.maps.Kernel[m][m], c.M, bk, -1, a, bk, 1, c.Data, c.N)
	}
}

func (g *graph) gemmBody(m, n, k int) func() {
	if g.mat == nil {
		return nil
	}
	return func() {
		if g.Err() != nil {
			return
		}
		dev := g.deviceOf(m, n)
		a := g.view(m, k, dev)
		b := g.view(n, k, dev)
		c := g.mat.At(m, n)
		bk := g.desc.TileDim(k)
		linalg.GemmNTPrec(g.maps.Kernel[m][n], c.M, c.N, bk, -1, a, bk, b, bk, 1, c.Data, c.N)
	}
}
