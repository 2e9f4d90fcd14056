GO ?= go

.PHONY: check build vet test race bench lint lint-json

## check: tier-1 gate — gofmt, build, vet, infless-lint, full tests, and
## a race pass on the shared runtime + gateway (see scripts/check.sh).
check:
	./scripts/check.sh

## lint: the static-analysis suite, 11 analyzers (wallclock, maporder,
## singledef, serverscan, lockedcallback, and the flow-sensitive
## lockorder, hotalloc, errflow, goroutinelife, chanlife, ctxflow — see
## internal/analysis). Analyzers run in
## parallel with input-ordered output. Prints its own wall time;
## check.sh enforces a 60s budget on the same run.
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/infless-lint ./... || exit $$?; \
	echo "infless-lint: $$(( $$(date +%s) - start ))s"

## lint-json: same findings as a stable JSON array ({file, line, col,
## analyzer, message, suppressed}); CI turns it into ::error annotations.
lint-json:
	$(GO) run ./cmd/infless-lint -format=json ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the packages exercised concurrently (wall-clock gateway, the
## runtime policies it shares with the simulator, the telemetry
## collector both planes feed from many goroutines, the loadgen worker
## pool, the COW function registry, and the cow / pool / simclock types
## the planes build on).
race:
	$(GO) test -race ./internal/gateway/... ./internal/runtime/... ./internal/telemetry/... ./internal/loadgen/... ./internal/core/... ./internal/cow/... ./internal/pool/... ./internal/simclock/...

## bench: the repository's benchmark (BENCHMARK.json, benchmark/README.md),
## one workload after the other; the last line of each is its JSON result.
bench:
	@for w in gw_dispatch gw_http sim_fleet sched_scale; do \
		$(GO) run ./benchmark --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done
