package cg

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"geompc/internal/obs"
	"geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/runtime"
	"geompc/internal/solver"
)

// params is cfg.Iter with the defaults applied.
type params struct {
	tol      float64
	maxIters int
	chunk    int
	ladder   []prec.Precision
	rate     float64
	safety   float64
	precond  string
}

func resolve(it solver.IterParams, numeric bool) params {
	p := params{
		tol: it.Tol, maxIters: it.MaxIters, chunk: it.Chunk,
		ladder: it.Ladder, rate: it.Rate, safety: it.Safety, precond: it.Precond,
	}
	if p.tol <= 0 {
		p.tol = 1e-10
	}
	if p.maxIters <= 0 {
		if numeric {
			p.maxIters = 500
		} else {
			p.maxIters = 24
		}
	}
	if p.chunk <= 0 {
		p.chunk = 4
	}
	if len(p.ladder) == 0 {
		p.ladder = prec.CholeskySet
	}
	if p.rate <= 0 || p.rate >= 1 {
		p.rate = 0.25
	}
	if p.safety <= 0 {
		p.safety = 8
	}
	return p
}

// pick is the per-iteration precision-switch rule: the lowest ladder
// precision whose unit roundoff still clears the predicted relative
// residual by the safety margin (and the stagnation floor), falling back
// to the ladder's highest precision. This is the iterative analogue of the
// paper's tile-wise rule — accuracy demand grows as the residual shrinks,
// so early iterations run cheap and late iterations run exact.
func (p params) pick(relres, epsFloor float64) prec.Precision {
	budget := relres / p.safety
	best := p.ladder[0]
	for _, q := range p.ladder {
		if e := q.Eps(); e <= budget && e <= epsFloor && e > best.Eps() {
			best = q
		}
	}
	return best
}

// chunkSig hashes everything that determines one chunk's schedule except
// the precision maps and the vector contents: the problem shape, machine,
// strategy, scheduling knobs, and the chunk's precision schedule (its
// iteration count, execution precisions and wire formats). The chunk's
// global base iteration is deliberately excluded — two chunks with equal
// precision schedules replay the same plan.
func chunkSig(cfg solver.Config, cp chunkParams, precond string) uint64 {
	var d obs.Digest
	d.WriteString("geompc/plan/v1")
	d.WriteString("cg")
	cfg.WriteShapeSig(&d)
	d.WriteString(precond)
	d.WriteInt64(int64(cp.iters))
	for _, p := range cp.precs {
		d.WriteInt64(int64(p))
	}
	for _, p := range cp.pwire {
		d.WriteInt64(int64(p))
	}
	return d.Sum()
}

// runChunk executes one chunk through the shared cached-run flow (live
// when c is nil). Chunks with equal precision schedules share a compiled
// plan (the chunk signature excludes the base iteration), so a converging
// solve typically compiles two or three plans and replays the rest.
func runChunk(cfg solver.Config, cp chunkParams, st *state, errv *atomic.Value, c *plan.Cache, precond string) (plan.Outcome, error) {
	return c.Run(
		func() (uint64, uint64) { return chunkSig(cfg, cp, precond), cfg.Maps.Signature() },
		func() (runtime.Graph, error) { return newGraph(cfg, cp, st, errv) },
		cfg.Engine)
}

// addStats accumulates one chunk into the solve totals; rates (Flops,
// AvgPower) are recomputed by the caller once the totals are final.
func addStats(dst *runtime.Stats, s runtime.Stats) {
	dst.Makespan += s.Makespan
	dst.TotalFlops += s.TotalFlops
	dst.BytesH2D += s.BytesH2D
	dst.BytesD2H += s.BytesD2H
	dst.BytesNet += s.BytesNet
	dst.SenderConversions += s.SenderConversions
	dst.ReceiverConversions += s.ReceiverConversions
	dst.Energy += s.Energy
	dst.Tasks += s.Tasks
}

// Run executes the preconditioned CG solve described by cfg: numeric when
// cfg.Matrix holds tile data and cfg.RHS is set, phantom (cost-only, a
// modeled residual trajectory) otherwise. A non-nil cache replays the
// frozen plan of every chunk whose precision schedule repeats; nil runs
// each chunk live.
func Run(cfg solver.Config, c *plan.Cache) (*solver.Result, error) {
	res, _, err := solve(cfg, c, false)
	return res, err
}

// solve drives the chunk loop. pure disables residual replacement — the
// SLQ estimator needs the uncorrected CG recurrence, whose α/β are the
// Lanczos coefficients.
func solve(cfg solver.Config, c *plan.Cache, pure bool) (*solver.Result, *state, error) {
	if cfg.Platform == nil {
		return nil, nil, fmt.Errorf("cg: nil platform")
	}
	if cfg.Maps == nil {
		return nil, nil, fmt.Errorf("cg: nil precision maps")
	}
	if cfg.Desc.NT <= 0 || cfg.Desc.N <= 0 {
		return nil, nil, fmt.Errorf("cg: empty tiling descriptor")
	}
	numeric := cfg.Matrix != nil && !cfg.Matrix.Phantom
	pr := resolve(cfg.Iter, numeric)

	var st *state
	if numeric {
		if cfg.RHS == nil {
			return nil, nil, fmt.Errorf("cg: numeric solves need a right-hand side (set Config.RHS)")
		}
		if len(cfg.RHS) != cfg.Desc.N {
			return nil, nil, fmt.Errorf("cg: RHS has %d entries, matrix is %d×%d", len(cfg.RHS), cfg.Desc.N, cfg.Desc.N)
		}
		var err error
		st, err = newState(cfg.Desc, cfg.Matrix, cfg.RHS, pr.precond, pr.maxIters)
		if err != nil {
			return nil, nil, err
		}
	}

	// Iteration budget: numeric runs until converged or maxIters; phantom
	// runs the modeled trajectory relres(t) = rate^t down to tol (capped).
	limit := pr.maxIters
	if !numeric {
		need := int(math.Ceil(math.Log(pr.tol) / math.Log(pr.rate)))
		if need < 1 {
			need = 1
		}
		if need < limit {
			limit = need
		}
	}

	errv := new(atomic.Value)
	curRes := 1.0
	epsFloor := math.Inf(1)
	incoming := prec.FP64
	if cfg.Strategy != solver.ForceTTC {
		incoming = prec.Wire(pr.pick(curRes, epsFloor))
	}
	if st != nil {
		prec.Quantize(st.p, incoming)
	}

	var total runtime.Stats
	var dig obs.Digest
	reg := obs.NewRegistry()
	var sched []solver.ScheduledTask
	offset := 0.0
	done, chunks := 0, 0
	converged := false

	for done < limit {
		k := pr.chunk
		if rem := limit - done; rem < k {
			k = rem
		}
		cp := chunkParams{
			iters: k, base: done,
			precs: make([]prec.Precision, k),
			pwire: make([]prec.Precision, k+1),
		}
		cp.pwire[0] = incoming
		for t := 0; t < k; t++ {
			pred := curRes * math.Pow(pr.rate, float64(t))
			cp.precs[t] = pr.pick(pred, epsFloor)
			if t > 0 {
				cp.pwire[t] = prec.FP64
				if cfg.Strategy != solver.ForceTTC {
					cp.pwire[t] = prec.Wire(cp.precs[t])
				}
			}
		}
		cp.pwire[k] = prec.FP64
		if cfg.Strategy != solver.ForceTTC {
			cp.pwire[k] = prec.Wire(pr.pick(curRes*math.Pow(pr.rate, float64(k)), epsFloor))
		}

		out, err := runChunk(cfg, cp, st, errv, c, pr.precond)
		if err != nil {
			return nil, nil, err
		}
		addStats(&total, out.Stats)
		dig.WriteUint64(out.Stats.ScheduleDigest)
		reg.Merge(out.Metrics())
		for _, t := range out.Schedule() {
			sched = append(sched, solver.ScheduledTask{
				Name:   TaskName(cfg.Desc.NT, k, done, t.ID),
				Device: t.Device,
				Start:  t.Start + offset,
				End:    t.End + offset,
			})
		}
		offset += out.Stats.Makespan
		for t := 0; t < k; t++ {
			reg.Counter("cg/iters/" + cp.precs[t].String()).Inc()
		}
		done += k
		chunks++
		incoming = cp.pwire[k]

		if numeric {
			if errv.Load() != nil {
				break // CG breakdown: report via Result.Err
			}
			measured := st.relres[done-1]
			if !pure {
				measured = st.refresh()
			}
			if measured > 0.9*curRes {
				// Stagnation: the chunk barely moved the residual — the
				// cheap end of the ladder is rounding away the progress.
				// Retire the lowest precision the chunk used.
				worst := 0.0
				for _, p := range cp.precs {
					if e := p.Eps(); e > worst {
						worst = e
					}
				}
				if f := worst / 2; f < epsFloor {
					epsFloor = f
				}
			}
			curRes = measured
			if measured <= pr.tol {
				converged = true
				break
			}
		} else {
			curRes = math.Pow(pr.rate, float64(done))
			if curRes <= pr.tol {
				converged = true
				break
			}
		}
	}

	if total.Makespan > 0 {
		total.Flops = total.TotalFlops / total.Makespan
		total.AvgPower = total.Energy / total.Makespan
	}
	total.ScheduleDigest = dig.Sum()

	res := &solver.Result{
		Stats:      total,
		Backend:    "cg",
		Strategy:   cfg.Strategy,
		Iterations: done,
		Residual:   curRes,
		Converged:  converged,
		Reg:        reg,
	}
	if v := errv.Load(); v != nil {
		res.Err = v.(error)
		res.Converged = false
	}
	reg.Gauge("cg/iterations").Set(float64(done))
	reg.Gauge("cg/chunks").Set(float64(chunks))
	reg.Gauge("cg/residual").Set(curRes)
	if len(sched) > 0 {
		sort.SliceStable(sched, func(i, j int) bool { return sched[i].Start < sched[j].Start })
		res.Schedule = sched
	}
	if st != nil && res.Err == nil {
		res.Solution = append([]float64(nil), st.x...)
	}
	return res, st, nil
}
