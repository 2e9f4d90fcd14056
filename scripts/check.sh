#!/bin/sh
# scripts/check.sh is the tier-1 gate: formatting, build + vet, full
# test suite, a five-second native fuzz of each of the three parsers of
# outside input (the two trace readers and the template parser; a
# crasher lands in testdata/fuzz and fails the gate with its replay
# line), a race pass over the concurrently-exercised packages
# (`make race`, where the package lists live: the wall-clock gateway,
# whose callers and pacer drive one sim.Engine under one lock, the engine
# and runtime policies it drives, the telemetry collector, which the
# engine feeds without a lock and snapshots read under the plane's lock
# while a live gateway serves, simclock's heap against its sorted
# reference, and
# the sharded cluster + scheduler whose FitPool fans fit-queries across
# workers), a sharded-equivalence
# smoke (every Schedule decision bit-identical to the single-shard
# reference), three one-second runs of the repository's benchmark —
# gw_dispatch (an in-process invocation stays under 1.2 B: the gateway
# allocates nothing, and the 1.08 B measured at --seconds 1 is the
# harness's full json.Unmarshal of every 256th reply, 272 B each, plus
# the 3 % bound), sim_fleet (conservation and
# digest equality hold, the three policy outcomes equal the seed-1
# values in benchmark/calibration.json, so a change that moves a
# scheduling or accounting decision fails here, and a simulated request
# stays under 18 B: the 16-byte idle-log entry LSTH keeps for it, plus
# the histogram bins its gaps reach (they grow on demand) and the reused
# plan, backlog and stream buffers, 17.37 B at --seconds 1, plus the 3 %
# bound) and
# sched_scale (its
# booking audit passes and a placement stays under 1 B: Schedule
# allocates nothing, its result lives in the plan's buffer) —
# and infless-lint — the AST/types-based analyzer suite
# (cmd/infless-lint): maporder keeps map order out of the deterministic
# packages' output, and the whole-program hotalloc / errflow analyzers
# hold the zero-alloc paths and the control plane's error handling.
# go vet runs ahead of it and is part of the same gate: its lostcancel
# pass is the module's cancel-on-every-path check. The lint pass runs
# the 3 analyzers one after the other, prints its measured wall time
# and has a 60s budget so it stays cheap enough to run on every commit.
# The race pass doubles as the goroutine-leak gate: the NumGoroutine
# settle-and-compare harnesses around Server.Close, FitPool.Close,
# loadgen.Run and the bench runner ride the gateway/cluster/loadgen/bench
# race runs. In go test, internal/analysis/registry_test.go holds every
# `go` statement in the tree to a row naming the harness that joins it,
# the lifecycle policies and placement index to one declaration each in
# their home files, and sync.Pool to internal/pool.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "FAIL: gofmt needed on:"
	printf '%s\n' "$unformatted"
	exit 1
fi
echo "== go build"
go build ./...
echo "== go vet (incl. lostcancel: every context cancel runs on every path)"
go vet ./...
echo "== infless-lint (60s budget)"
lint_start=$(date +%s)
go run ./cmd/infless-lint ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "infless-lint: ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 60 ]; then
	echo "FAIL: infless-lint exceeded its 60s budget (${lint_elapsed}s)"
	exit 1
fi
echo "== go test"
go test ./...
echo "== fuzz smoke (3 targets x 5s: trace CSV, Azure CSV, function template)"
go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 5s ./internal/workload
go test -run '^$' -fuzz '^FuzzReadAzureCSV$' -fuzztime 5s ./internal/workload
go test -run '^$' -fuzz '^FuzzParseTemplate$' -fuzztime 5s ./internal/core
echo "== go test -race (make race: gateway + sim + runtime + ..., cluster + scheduler, experiment runner)"
"${MAKE:-make}" race
echo "== sharded-equivalence smoke"
go test -short -run 'Sharded|ShardEdge|ShardBounds|ShardMemory|ShardRange|ShardWholeShard|PrefixCut' ./internal/cluster/ ./internal/scheduler/

# metric prints the value of end-to-end metric $2 from the benchmark
# output $1, whose last line is the JSON result.
metric() {
	printf '%s\n' "$1" | tail -n 1 | sed -n "s/.*\"$2\":{\"value\":\([0-9.e+-]*\).*/\1/p"
}
# calibrated prints the committed seed-1 value of sim_fleet's metric $1:
# the first of its "values" in benchmark/calibration.json.
calibrated() {
	awk -v m="\"$1\":" '
		/"workload": "sim_fleet"/ { inw = 1 }
		inw && $1 == m { inm = 1 }
		inm && /"values"/ { getline; gsub(/[ ,]/, ""); print; exit }
	' benchmark/calibration.json
}

echo "== benchmark smoke (gw_dispatch: replies checked, <= 1.2 B per invocation — the harness's reply decodes, 1.08 B, plus the 3 % bound)"
smoke_out=$(go run ./benchmark --workload gw_dispatch --seed 1 --seconds 1 --trace 0)
alloc_b=$(metric "$smoke_out" alloc_bytes_per_op)
echo "gw_dispatch alloc_bytes_per_op: ${alloc_b:-missing}"
awk -v b="${alloc_b:-nan}" 'BEGIN { exit !(b + 0 == b && b <= 1.2) }' || {
	echo "FAIL: the invoke hot path allocates (over 1.2 B per invocation, or reported nothing)"
	exit 1
}

echo "== benchmark smoke (sim_fleet: conservation + digest equality, policy outcomes equal calibration.json on seed 1, <= 18 B per simulated request)"
smoke_out=$(go run ./benchmark --workload sim_fleet --seed 1 --seconds 1 --trace 0)
for m in latency_p50_ms slo_attainment goodput_per_resource; do
	got=$(metric "$smoke_out" "$m")
	want=$(calibrated "$m")
	echo "sim_fleet $m: ${got:-missing} (calibrated ${want:-missing})"
	if [ -z "$got" ] || [ "$got" != "$want" ]; then
		echo "FAIL: sim_fleet $m moved off its calibrated seed-1 value: a policy or accounting outcome changed"
		exit 1
	fi
done
alloc_b=$(metric "$smoke_out" alloc_bytes_per_op)
echo "sim_fleet alloc_bytes_per_op: ${alloc_b:-missing}"
awk -v b="${alloc_b:-nan}" 'BEGIN { exit !(b + 0 == b && b <= 18) }' || {
	echo "FAIL: sim_fleet allocates more than 18 B per simulated request (or reported nothing)"
	exit 1
}

echo "== benchmark smoke (sched_scale: booking audit on every segment, <= 1 B per placement)"
smoke_out=$(go run ./benchmark --workload sched_scale --seed 1 --seconds 1 --trace 0)
alloc_b=$(metric "$smoke_out" alloc_bytes_per_op)
echo "sched_scale alloc_bytes_per_op: ${alloc_b:-missing}"
awk -v b="${alloc_b:-nan}" 'BEGIN { exit !(b + 0 == b && b <= 1) }' || {
	echo "FAIL: sched_scale allocates more than 1 B per placement (or reported nothing)"
	exit 1
}

echo "== loadgen smoke (10s closed loop against a live gateway)"
./scripts/loadgen_smoke.sh

echo "OK"
