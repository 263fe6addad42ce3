package main

// The metric tables. BENCHMARK.json at the repository root declares the
// same names, units and directions (its format allows nothing more); the
// package test keeps the two in step. What BENCHMARK.json cannot hold —
// which end-to-end metric, on which workload, each per-layer metric is
// predicted to move — lives here and in README.md.

// endToEnd is one metric a user of the library sees, with the share of the
// parent's median by which it may worsen before a change is a regression.
type endToEnd struct {
	name, unit, better string
	bound              float64
}

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"evals_per_s", "1/s", "higher", 0.25},
	{"sim_energy_j", "J", "lower", 0.05},
	{"sim_bytes_moved", "B", "lower", 0.05},
}

// perLayer is one metric of a single layer. moves and on are the written-
// down prediction: the end-to-end metrics a change to this number should
// move, and the workloads it should move them on (both empty: predicted to
// move nothing today). why is the one-line reasoning.
type perLayer struct {
	name, unit, better string
	moves, on          []string
	why                string
}

var (
	fits     = []string{"fit_matern", "fit_sqexp"}
	fitSide  = []string{"fit_matern", "fit_sqexp", "mc_matern"}
	materns  = []string{"fit_matern", "mc_matern"}
	project  = []string{"project_scale"}
	all      = []string{"fit_matern", "fit_sqexp", "project_scale", "mc_matern"}
	timeMets = []string{"wall_s", "cpu_s", "evals_per_s"}
)

var perLayerMetrics = []perLayer{
	// Issue-level metrics the driver's format cannot carry as end-to-end
	// ones (see README, "Deviations").
	{"fail_frac", "frac", "lower", nil, nil, "operations failed / attempted; the command exits non-zero above 0"},
	{"accuracy_gap", "frac", "lower", nil, nil, "reported NLL vs dense FP64 oracle at θ̂ (fits); 1e-9 vs exact estimates (mc_matern); varies by orders of magnitude across seeds, so it gates instead of being bounded"},
	{"sim_makespan_s", "s", "lower", []string{"sim_energy_j"}, all, "simulated time of the reference factorizations; deterministic, moves only when the model does"},
	{"sim_tasks_per_s", "1/s", "higher", timeMets, project, "simulated tasks per host second; evals_per_s times the tasks of one factorization"},

	{"geo.covtile_ms", "ms", "lower", timeMets, fitSide, "tile.Matrix.Fill(geo.CovTile) per evaluation: predicted ≈77% of fit_matern, most of mc_matern, ≤15% of fit_sqexp"},
	{"geo.ns_per_entry", "ns", "lower", timeMets, fitSide, "geo.covtile_ms per generated element"},
	{"geo.entries", "count", "lower", timeMets, fitSide, "lower-tile elements generated per evaluation; falls only if generation skips or caches work"},
	{"geo.simulate_ms", "ms", "lower", []string{"setup_s", "wall_s"}, all, "geo.SimulateField per dataset: set-up everywhere, inside the replica on mc_matern"},
	{"geo.locations_ms", "ms", "lower", []string{"setup_s", "wall_s"}, project, "geo.GenerateLocations: set-up on fits, inside every projection on project_scale"},
	{"bessel.k_ns", "ns", "lower", timeMets, materns, "one bessel.K call at (ν, r/β) pairs sampled from the workload's own trajectory"},
	{"bessel.calls_per_eval", "count", "lower", timeMets, materns, "bessel.K calls one evaluation makes (0 for sqexp and for ν = 0.5 exactly)"},
	{"bessel.share", "frac", "lower", timeMets, materns, "computed: calls × k_ns / geo.covtile_ms"},
	{"tile.alloc_ms", "ms", "lower", timeMets, fits, "tile.NewMatrix per evaluation; the matrix is re-allocated on every call today"},
	{"mle.alloc_bytes_per_eval", "B", "lower", timeMets, fits, "bytes allocated per evaluation of the untraced operation; feeds host.gc_frac"},
	{"mle.allocs_per_eval", "count", "lower", timeMets, fits, "heap objects allocated per evaluation of the untraced operation"},
	{"precmap.map_ms", "ms", "lower", timeMets, fitSide, "FromMatrix + New + SetStorage per evaluation; predicted <1% of wall_s"},
	{"precmap.frac_fp64", "frac", "lower", []string{"wall_s", "sim_bytes_moved", "sim_energy_j"}, all, "share of tiles whose kernel runs in FP64, averaged over the trajectory"},
	{"precmap.frac_fp32", "frac", "higher", []string{"wall_s", "sim_bytes_moved", "sim_energy_j"}, all, "share of FP32 tiles"},
	{"precmap.frac_fp16x32", "frac", "higher", []string{"wall_s", "sim_bytes_moved", "sim_energy_j"}, all, "share of FP16_32 tiles"},
	{"precmap.frac_fp16", "frac", "higher", []string{"wall_s", "sim_bytes_moved", "sim_energy_j"}, all, "share of pure-FP16 tiles; emulated FP16 GEMM is ≈38× slower than FP32 on the host"},
	{"precmap.stc_frac", "frac", "higher", []string{"sim_bytes_moved", "sim_energy_j"}, all, "share of communicating tasks converting at the sender (Algorithm 2)"},
	{"precmap.estimate_ms", "ms", "lower", timeMets, project, "EstimateTileNorms + NewKernelMap + New per projection; the Matérn app pays sampled Bessel calls"},
	{"cholesky.graph_ms", "ms", "lower", timeMets, []string{"project_scale", "mc_matern"}, "cholesky.PlanGraph per factorization"},
	{"runtime.engine_ms", "ms", "lower", timeMets, project, "phantom cholesky.Run minus the graph build; predicted ≈all of project_scale and <2% of a fit, so an engine gain moves no fit metric"},
	{"runtime.tasks", "count", "lower", nil, nil, "simulated tasks per factorization, NT(NT+1)(NT+2)/6"},
	{"runtime.ns_per_task", "ns", "lower", timeMets, project, "runtime.engine_ms per simulated task"},
	{"linalg.numeric_ms", "ms", "lower", timeMets, fits, "numeric cholesky.Run minus the phantom run of the same configuration: predicted ≈83% of fit_sqexp, ≈20% of fit_matern"},
	{"linalg.host_gflops", "Gflop/s", "higher", timeMets, fits, "cholesky.TheoreticalFlops(n) / linalg.numeric_ms"},
	{"mle.solve_ms", "ms", "lower", timeMets, []string{"fit_sqexp"}, "log-det loop + LowerToDense + TrsvLNN per evaluation; predicted ≈4% of fit_sqexp"},
	{"mle.eval_ms_p50", "ms", "lower", []string{"evals_per_s"}, fitSide, "median span of one objective call"},
	{"mle.eval_ms_p95", "ms", "lower", []string{"evals_per_s"}, fitSide, "95th percentile of the same spans (≥10 samples beyond it from 200 evaluations up)"},
	{"mle.evals", "count", "lower", []string{"wall_s", "cpu_s"}, fitSide, "objective calls per traced operation"},
	{"optimize.self_ms", "ms", "lower", []string{"wall_s", "cpu_s"}, fits, "traced fit minus Σ evaluation spans; moves wall_s but not evals_per_s"},
	{"optimize.rejected", "count", "lower", []string{"wall_s", "cpu_s"}, fitSide, "evaluations per traced operation that came back +Inf (Σ not SPD)"},
	{"optimize.dup_frac", "frac", "lower", []string{"wall_s", "cpu_s"}, fitSide, "share of evaluations at a bit-identical θ already seen: the work optimize.Options.Memoize would remove"},
	{"plan.compile_ms", "ms", "lower", nil, nil, "cholesky.RunCached on a miss or invalidation; predicted to move nothing: neither core.Fit nor the accuracy study passes a plan.Cache"},
	{"plan.replay_ms", "ms", "lower", nil, nil, "cholesky.RunCached on a hit, same trajectory"},
	{"plan.hit_frac", "frac", "higher", nil, nil, "plan.Cache hits / lookups over the trajectory"},
	{"plan.invalidated_frac", "frac", "lower", nil, nil, "lookups that found a plan for another precision map"},
	{"runtime.des_speedup", "x", "higher", nil, nil, "serial wall / wall at EngineWorkers = nproc for one project_scale factorization; moves nothing while serial is the default"},
	{"sweep.speedup", "x", "higher", nil, nil, "bench.ConvSweepOpts Workers 0 vs nproc on a Summit node; no workload here sweeps"},
	{"host.gc_frac", "frac", "lower", []string{"wall_s", "cpu_s"}, []string{"project_scale", "mc_matern"}, "GC CPU seconds / process CPU seconds over the timed region"},
	{"host.peak_heap_mb", "MB", "lower", []string{"wall_s"}, project, "Go heap obtained from the OS (MemStats.HeapSys) at the end of the run"},
	{"host.cpu_util", "frac", "higher", []string{"wall_s"}, []string{"mc_matern"}, "cpu_s / (wall_s × GOMAXPROCS); below 1 on mc_matern means idle workers"},
	{"trace.unattributed_frac", "frac", "lower", nil, nil, "share of the traced total no layer accounts for; must stay ≤ 0.05"},
	{"trace.overhead_frac", "frac", "lower", nil, nil, "(traced − untraced wall) / untraced over paired operations, probes removed; must stay ≤ 0.05"},
}

// workloadInfo names a workload and says why it is in the set.
type workloadInfo struct{ name, why string }

var workloadInfos = []workloadInfo{
	{"fit_matern", "core.Fit of a 400-point 2D Matern field at u_req 1e-9: bessel.K-bound covariance generation dominates, so a generation gain must show here"},
	{"fit_sqexp", "core.Fit of a 1600-point 2D sqexp field in exact FP64: generation is cheap and linalg kernels dominate, so a Bessel gain should not move it and a kernel gain should"},
	{"project_scale", "four phantom ProjectFactorization runs of N=262144 on 96 simulated GPUs: no numerics, almost no geo; bypasses every fit-side optimisation and carries any engine claim"},
	{"mc_matern", "the Monte-Carlo accuracy study: many small Matern fits already spread over GOMAXPROCS, so parallelising inside one fit can cost here and fixed per-evaluation overheads weigh more"},
}
