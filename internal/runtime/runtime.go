// Package runtime is the policy side of the request/instance lifecycle:
// batch-timeout derivation, the Eq. 1 admission glue, arrival-rate
// estimation and the lifecycle-observer hooks. The lifecycle itself is
// internal/sim's engine, one goroutine that serves both planes — the
// simulator runs it over traces in virtual time, the HTTP gateway
// (internal/gateway) paces the same engine by the wall clock — so the
// paper's claim that INFless "runs the real scheduling code against
// simulated machines" is literally true here, and the stateful types
// below (the rate estimators) are single-goroutine like their owner.
//
// Everything in this package measures time as a time.Duration offset
// from the start of the run ("plane time"): the engine's virtual clock,
// which under the gateway is wall time since its epoch scaled by its
// speed factor.
package runtime

import (
	"time"

	"github.com/tanklab/infless/internal/batching"
)

// BatchTimeout is the longest a head request may wait in the batch queue
// while still meeting the SLO after the (predicted) execution time. It
// is the single definition used by both planes (formerly copy-pasted in
// internal/sim and internal/gateway).
func BatchTimeout(slo, texec time.Duration) time.Duration {
	t := slo - texec
	if t < time.Millisecond {
		t = time.Millisecond
	}
	return t
}

// BatchPolicy bundles one function's SLO-driven batching decisions: the
// head-of-queue timeout and the projected-violation admission test.
type BatchPolicy struct {
	SLO time.Duration
}

// Timeout returns the batch-queue timeout for a candidate whose batch
// execution time is texec.
func (p BatchPolicy) Timeout(texec time.Duration) time.Duration {
	return BatchTimeout(p.SLO, texec)
}

// DefaultAlpha is the rate-controller damping factor of Section 3.2:
// scaling targets ~alpha*r_up utilization per instance so estimation
// noise does not thrash the instance count. Re-exported from
// internal/batching, which owns the Eq. 1 / Section 3.2 constants.
const DefaultAlpha = batching.DefaultAlpha

// ScaleAheadTarget is the RPS a scale-out should provision for: the
// unplaced residual plus (1/alpha - 1) of the total demand as headroom.
// Under rising load this turns a stream of tiny residuals into one
// efficiently-sized instance (large batch, saturable) instead of a
// trickle of small-batch ones. The simulator's autoscaler applies it
// per tick with demand = windowed rate + backlog; the gateway applies
// it per reactive scale-out with demand = residual = the burst-aware
// rate (when a request cannot be placed, no existing capacity covers
// it). Alpha values outside (0, 1] fall back to DefaultAlpha.
func ScaleAheadTarget(residual, demand, alpha float64) float64 {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return residual + demand*(1/alpha-1)
}

// ProjectedViolation reports whether a request would miss the SLO if
// enqueued now: it has already waited `waited` (plus `coldWait` until
// the instance becomes ready), and `queued` requests sit ahead of it on
// an instance running batches of size b costing texec each (`busy` adds
// the in-flight batch). A native platform sees its own queues, so it can
// reject such a request up front instead of serving it late and wasting
// an execution slot on a doomed request (Observation 5).
func (p BatchPolicy) ProjectedViolation(queued, b int, busy bool, texec, waited, coldWait time.Duration) bool {
	batchesAhead := (queued + b) / b
	if busy {
		batchesAhead++
	}
	return waited+coldWait+time.Duration(batchesAhead)*texec > p.SLO
}
