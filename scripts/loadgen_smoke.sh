#!/bin/sh
# scripts/loadgen_smoke.sh boots a real gateway binary, deploys one
# function over REST, and drives a 10-second closed-loop load through
# the full HTTP stack with infless-loadgen. It fails when nothing
# succeeds (the dispatch path is broken) or when hard failures appear
# (overload must surface as 429 sheds, never as 5xx) — the end-to-end
# complement of check.sh's in-process gw_dispatch allocation smoke.
set -eu
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:18081}"
DUR="${SMOKE_DURATION:-10s}"

go build -o /tmp/infless-gateway-smoke ./cmd/infless-gateway
go build -o /tmp/infless-loadgen-smoke ./cmd/infless-loadgen

/tmp/infless-gateway-smoke -addr "$ADDR" -speed 2000 &
GW=$!
trap 'kill $GW 2>/dev/null || true' EXIT

# Wait for the listener, then deploy.
i=0
until curl -sf "http://$ADDR/system/functions" >/dev/null 2>&1; do
	i=$((i + 1))
	[ $i -gt 50 ] && { echo "FAIL: gateway never came up"; exit 1; }
	sleep 0.1
done
curl -sf -XPOST -H 'Content-Type: application/json' "http://$ADDR/system/functions" \
	-d '{"name":"smoke","model":"MNIST","slo":"200ms"}' >/dev/null

out=$(/tmp/infless-loadgen-smoke -url "http://$ADDR/function/smoke" \
	-mode closed -connections 32 -duration "$DUR" -slo 200ms)
echo "$out"
case "$out" in
*"ok=0 "*) echo "FAIL: no successful invocations"; exit 1 ;;
esac
case "$out" in
*"failed=0 "*) : ;;
*) echo "FAIL: hard failures under load (overload must shed as 429)"; exit 1 ;;
esac
echo "loadgen smoke OK"
