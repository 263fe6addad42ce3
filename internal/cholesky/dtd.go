package cholesky

import (
	"geompc/internal/runtime"
)

// RunDTD executes the same factorization as Run, but expresses it through
// the runtime's Dynamic Task Discovery interface: tasks are inserted in the
// sequential order of Algorithm 1 and every dependence edge is *inferred*
// from Read/Write data-access annotations, instead of being declared
// algebraically by the PTG. For the Cholesky DAG the inferred edges are
// semantically identical to the PTG's, so the two front-ends must produce
// the same simulated statistics and (in numeric mode) the same factor — a
// property the test suite asserts. This mirrors PaRSEC offering PTG and DTD
// as interchangeable DSLs over one runtime (§III-B).
func RunDTD(cfg Config) (*Result, error) { return RunCachedDTD(cfg, nil) }

// buildDTD rebuilds the factorization as a Dynamic Task Discovery graph:
// tasks inserted in Algorithm 1 order with inferred edges. The insertion is
// deterministic, so a plan compiled from one buildDTD replays correctly
// against a fresh one (insertion ids coincide).
func buildDTD(cfg Config) (*graph, *runtime.DTDGraph, error) {
	g, err := newGraph(cfg)
	if err != nil {
		return nil, nil, err
	}

	dtd := runtime.NewDTDGraph()
	g.InitialData(dtd.Data)

	nt := cfg.Desc.NT
	var spec runtime.TaskSpec
	insert := func(id int) error {
		spec = runtime.TaskSpec{}
		g.Spec(id, &spec)
		accesses := make([]runtime.Access, 0, len(spec.Inputs)+1)
		for _, in := range spec.Inputs {
			accesses = append(accesses, runtime.Access{
				Data: in.Data, Mode: runtime.Read,
				WireBytes:    in.WireBytes,
				Prec:         in.WirePrec,
				ConvertElems: in.ConvertElems,
				ConvFrom:     in.ConvFrom, ConvTo: in.ConvTo,
			})
		}
		accesses = append(accesses, runtime.Access{
			Data: spec.Output.Data, Mode: runtime.Write,
			WireBytes: spec.Output.Bytes, Prec: spec.Output.Prec,
		})
		_, err := dtd.Insert(spec, accesses...)
		return err
	}

	// Algorithm 1, inserted sequentially.
	for k := 0; k < nt; k++ {
		if err := insert(g.potrf(k)); err != nil {
			return nil, nil, err
		}
		for m := k + 1; m < nt; m++ {
			if err := insert(g.trsm(m, k)); err != nil {
				return nil, nil, err
			}
		}
		for m := k + 1; m < nt; m++ {
			if err := insert(g.syrk(m, k)); err != nil {
				return nil, nil, err
			}
		}
		for m := k + 2; m < nt; m++ {
			for n := k + 1; n < m; n++ {
				if err := insert(g.gemm(m, n, k)); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	return g, dtd, nil
}
