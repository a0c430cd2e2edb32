# Developer entry points. `make verify` is the full pre-merge gate;
# tier-1 (ROADMAP.md) is the build+test subset.

GO ?= go

.PHONY: verify build vet test race bench bench-once bench-compile bench-pairs bench-gate fmt-check check

verify: build vet race bench-once bench-compile check fmt-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race-detector run subsumes `make test` (same packages, -race adds
# the happens-before checker); internal/core carries dedicated TestRace*
# stress tests written for this mode, and internal/cluster's property
# tests (TestPropertyNoEarlyRelease) run their fault-injected sims as
# parallel subtests so -race checks the sims share no hidden state.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# Every root benchmark once (-benchtime 1x, under a second): `go vet`
# only compiles them, so this is what makes a broken benchmark fail
# here rather than in the next `make bench`. The root keeps only the
# eight families whose numbers no other harness records yet:
# E2Barriers (point barriers, until bench/ records them beside
# `sense`), E2SplitScaling (large n and the reduce barrier, until
# bench/ sweeps size x skew x radix), ReduceAllreduce, DynamicBarrier
# and SimulatorThroughput (no bench/ workload runs them), and the three
# Ablation* families (DESIGN.md §5). Every other number lives in
# bench/, an experiment table or a `make bench-gate` test.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench/ is a module of its own (it is what BENCHMARK.json runs), so
# `./...` above never compiles it. Its tests build every workload
# against today's internal/ APIs, run each at tiny size and check the
# BENCHMARK.json pin, in under 3 s — a change that breaks the benchmark
# fails here, not in the benchmark run.
bench-compile:
	$(GO) test -C bench ./...

# Back-to-back parent/change pairs of one or more bench/ workloads,
# alternating which side runs first, then per workload bench/run.sh
# -compare and a won/lost/tied line per end-to-end metric:
# `make bench-pairs PARENT=<ref> WORKLOAD="rt-spin rt-block rt-region"`.
PARENT ?= HEAD~1
WORKLOAD ?= svc-1m
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) "$(WORKLOAD)" $(PAIRS)

# Perf regression gates: fail if fast-forwarded machine.Run is not
# comfortably faster than the naive per-cycle loop on a stall-heavy
# workload (threshold 1.2x; typical measured ratio is ~10x), if the
# sharded lookahead-window cluster engine is not >= 2x the serial
# engine at 1024 nodes (self-skips below 4 cores), if the sweep worker
# pool is not >= 1.2x on the E15 grid, or if the hierarchical barrier's
# hotspot-ops/phase exceeds the flat tree's at n >= 4096 (the parallel
# gates self-skip when GOMAXPROCS is too low — one core cannot show
# parallel contention or speedup).
bench-gate:
	BENCH_GATE=1 $(GO) test -run TestFastForwardSpeedupGate -count=1 -v ./internal/machine
	BENCH_GATE=1 $(GO) test -run TestParallelEngineSpeedupGate -count=1 -v ./internal/cluster
	BENCH_GATE=1 $(GO) test -run TestSweepParallelSpeedupGate -count=1 -v ./internal/exp
	BENCH_GATE=1 $(GO) test -run TestHierHotspotGate -count=1 -v .

# Model checking + weak-memory stress, CI-sized (<60s): exhaustively
# verify every cluster protocol at n<=3 under the full adversary
# (reorder, duplicate, drop) including the mutation negative tests that
# prove the checker has teeth, then hammer the runtime barriers with
# randomized schedules under the race detector — TestStress* covers the
# reduce-barrier fold check and phaser churn, TestRace* the plain-slot
# ordering baits. The wide n=4 sweep and full-length stress runs live
# behind the non-short suite (`make race`). The final line runs a short
# native-fuzz burst over the transport wire codec (the seed corpus plus
# 500 mutated inputs) so codec regressions surface pre-merge without a
# long fuzzing session.
check:
	$(GO) test -short -count=1 ./internal/check
	$(GO) test -race -short -count=1 -run 'TestStress|TestRace' ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzMessageCodec -fuzztime 500x ./internal/transport

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
