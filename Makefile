# geompc — reproduction of Cao et al., IEEE CLUSTER 2023.

GO ?= go

.PHONY: all build test vet lint loc bench race fuzz experiments clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint: vet
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi

test: vet
	$(GO) test ./...

# The ROADMAP scoreboard: non-test Go lines of product code — outside the
# frozen benchmark/ tree, testdata/ fixtures and examples/.
# CI prints it so the number quoted in ROADMAP.md is never hand-counted.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' -not -path './examples/*' | xargs cat | wc -l

race:
	$(GO) test -race ./internal/runtime/ ./internal/cholesky/ ./internal/plan/ ./internal/sweep/ ./internal/linalg/ ./internal/mle/ ./internal/geo/ ./internal/precmap/

# Focused benchmark trajectory (see BENCH_kernels.json): per-precision
# 256x256 GEMM + SYRK/TRSM kernels, the 64-tile GEMM/TRSM legs on normal
# and on binary32-underflowing operands (TRSM also FP64 at 64 and 49), the
# FP64 POTRF at n = 49, 64 and 1600, the phantom NT=64 Cholesky, the
# Fig 12 weak-scaling step, the sweep pair (one-worker pool vs 4-worker
# pool) and the event loop on a multi-rank phantom run (EngineMultiRank);
# the last two run at -cpu 4 — benchjson records GOMAXPROCS per line, so they stay honest
# even on smaller hosts.
# The covariance-generation benchmarks (root bench_test.go) time, at four θ
# of the end-to-end benchmark's fit_matern and fit_sqexp trajectories, what
# a fit pays for generation — bind once per θ over the locations' span
# (Matérn panel builds included), fill every tile through FillTile (row path
# in vector lanes): CovTileMatern and CovTileSqExp; MaternBound is the
# scalar bound Matérn kernel alone, entry by entry through Cov; MaternBind
# the bind alone (every panel of the span, in Bessel lanes);
# CovMatrixMatern the dense Σ(θ) behind fit_matern's synthetic field, every
# entry with the direct evaluator's bits (bound over geo.NoSpan: direct
# rows, Bessel lanes).
# BENCHTIME=1x gives a CI smoke run; the committed
# artifact uses 5x against the seed baseline in results/bench_seed.txt.
# The µs-scale legs (the 64-tile GEMM and TRSM, POTRF at 49 and 64) run a
# fixed 2,000 calls on their own line whatever BENCHTIME says: five calls
# of a 10 µs kernel read anything from 1× to 4× on a shared host.
# NegLogLikLevels (internal/mle) is the host cost of mixed precision: one
# likelihood evaluation per accuracy level (exact, 1e-9, 1e-6, 1e-4) at
# fit_matern's configuration (n400) and at n 1,600, tile 160 (n1600), a
# fixed 20 calls per leg.
BENCHTIME ?= 5x

bench:
	$(GO) test -run '^$$' -bench 'GemmNT256|SyrkTrsm256|Potrf' -skip 'Potrf/(49|64)$$' -benchmem -benchtime $(BENCHTIME) -cpu 1 ./internal/linalg/ > results/bench_after.txt
	$(GO) test -run '^$$' -bench 'GemmNT64|Trsm64|Potrf' -skip 'Potrf/1600' -benchmem -benchtime 2000x -cpu 1 ./internal/linalg/ >> results/bench_after.txt
	$(GO) test -run '^$$' -bench 'PhantomNT64$$' -benchmem -benchtime $(BENCHTIME) -cpu 1 ./internal/cholesky/ >> results/bench_after.txt
	$(GO) test -run '^$$' -bench 'Fig12WeakStep' -benchmem -benchtime $(BENCHTIME) -cpu 1 ./internal/bench/ >> results/bench_after.txt
	$(GO) test -run '^$$' -bench 'SweepParallel|EngineMultiRank' -benchmem -benchtime $(BENCHTIME) -cpu 4 ./internal/bench/ >> results/bench_after.txt
	$(GO) test -run '^$$' -bench 'CovTileMatern|CovTileSqExp|MaternBound|MaternBind|CovMatrixMatern' -benchmem -benchtime $(BENCHTIME) -cpu 1 . >> results/bench_after.txt
	$(GO) test -run '^$$' -bench 'NegLogLikLevels' -benchmem -benchtime 20x -cpu 1 ./internal/mle/ >> results/bench_after.txt
	$(GO) run ./cmd/benchjson -seed results/bench_seed.txt < results/bench_after.txt > BENCH_kernels.json

bench-all:
	$(GO) test -bench=. -benchmem .

fuzz:
	$(GO) test ./internal/fp16/ -fuzz FuzzFromFloat32 -fuzztime 30s

# Regenerate every paper artifact into results/. Measured on a 2-core
# host: about 14 minutes — the two Monte-Carlo studies 8 + 3 minutes, the
# three Fig 12 Summit-scale sweeps (~10^7-task DAGs) 3 minutes, everything
# else 6 seconds. Sweeps and studies run one worker per GOMAXPROCS and
# write the same bytes at any value of it; a Fig 12 sweep holds ~0.6 GiB
# per in-flight point (GOMAXPROCS=1: ~4 minutes for Fig 12, 1 GiB peak).
experiments:
	mkdir -p results
	$(GO) run ./cmd/geompc gemmbench > results/fig1_tables.txt
	$(GO) run ./cmd/geompc precmap -fig7 -n 409600 -ts 2048 > results/fig7.txt
	$(GO) run ./cmd/geompc precmap -demo -comm -demo-n 16384 -demo-ts 2048 -app 2D-sqexp > results/fig2_4_maps.txt
	$(GO) run ./cmd/geompc trace > results/fig3_trace.txt
	$(GO) run ./cmd/geompc convbench -machine Summit -gpus 1 > results/fig8a_v100.txt
	$(GO) run ./cmd/geompc convbench -machine Guyot -gpus 1 > results/fig8b_a100.txt
	$(GO) run ./cmd/geompc convbench -machine Haxane -gpus 1 -sizes 16384,32768,49152,65536,81920 > results/fig8c_h100.txt
	$(GO) run ./cmd/geompc convbench -node -machine Summit > results/fig11a_summitnode.txt
	$(GO) run ./cmd/geompc convbench -node -machine Guyot > results/fig11b_guyotnode.txt
	$(GO) run ./cmd/geompc power -occupancy -n 81920 > results/fig9_occupancy.txt
	$(GO) run ./cmd/geompc power -fig10 > results/fig10_energy.txt
	$(GO) run ./cmd/geompc ablation -banded -lookahead -probe > results/ablation.txt
	$(GO) run ./cmd/geompc accuracy -dim 2 -replicas 12 -n 324 -ts 54 -maxevals 400 > results/fig5_accuracy2d.txt
	$(GO) run ./cmd/geompc accuracy -dim 3 -replicas 12 -n 343 -ts 49 -maxevals 400 -levels 0,1e-8,1e-4,1e-2 > results/fig6_accuracy3d.txt
	$(GO) run ./cmd/geompc scale -weak -nodes 1,4,16,64 -base-n 98304 > results/fig12a_weak.txt
	$(GO) run ./cmd/geompc scale -strong -nodes 16,32,48,64 -strong-n 798720 > results/fig12b_strong.txt
	$(GO) run ./cmd/geompc scale -mp -mp-nodes 64 -sizes 196608,399360,598016,798720 > results/fig12c_mp.txt

clean:
	$(GO) clean ./...
