GO ?= go

.PHONY: check build vet test race bench bench-compare

## check: tier-1 gate — gofmt, build, vet, full tests (the registry
## tables, the allocation tests and every figure's quick-mode digest in
## internal/bench/testdata/figures.sha256 among them; a change meant to
## move a figure rewrites its line with go test ./internal/bench -update),
## a fuzz smoke of the three input parsers, a race pass on the shared
## runtime + gateway and the benchmark smokes (see scripts/check.sh).
check:
	./scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: every package exercised concurrently, in three passes — (1) the
## wall-clock gateway, whose callers and pacer drive one sim.Engine under
## one lock, that engine itself (internal/sim is the gateway's data
## plane), the runtime policies, the telemetry collector (fed by the
## engine with no lock, read from other goroutines under the plane's
## lock: TestMetricsDuringLoad scrapes a live gateway, and
## TestCollectorSnapshotDuringEvents reads under a test's guard), the
## loadgen worker pool, the function registry, and the
## pool / simclock types underneath (simclock's heap against its sorted
## reference, TestHeapMatchesSortedReference); (2) the sharded control plane,
## whose FitPool fans fit queries across workers (-short: the equivalence
## sweeps are long under the detector); (3) the parallel experiment
## runner and its leak test. scripts/check.sh runs this target, so the
## lists exist once.
race:
	$(GO) test -race ./internal/gateway/... ./internal/runtime/... ./internal/telemetry/... ./internal/sim/... ./internal/loadgen/... ./internal/core/... ./internal/pool/... ./internal/simclock/...
	$(GO) test -race -short ./internal/cluster/ ./internal/scheduler/
	$(GO) test -race -short -run 'TestRunStreamOrdered|TestParallelForCoversAllIndices|TestParallelAllDeterministic|TestRunnerLeavesNoGoroutines' ./internal/bench/

## bench: the repository's benchmark (BENCHMARK.json, benchmark/README.md),
## one workload after the other; the last line of each is its JSON result.
bench:
	@for w in gw_dispatch gw_http sim_fleet sched_scale; do \
		$(GO) run ./benchmark --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

## bench-compare: claim a gain the way the benchmark's README asks — PAIRS
## alternating runs of workload W on git ref REF (in a temporary
## worktree) and on the working tree, then medians, quartiles, pairs won
## and the verdict per end-to-end metric (cmd/infless-benchcmp).
##   make bench-compare REF=HEAD~1 W=sched_scale PAIRS=10
REF ?= HEAD
W ?= sched_scale
PAIRS ?= 10
bench-compare:
	$(GO) run ./cmd/infless-benchcmp -ref $(REF) -workload $(W) -pairs $(PAIRS)
