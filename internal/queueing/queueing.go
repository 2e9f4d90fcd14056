// Package queueing provides the analytic batch-service queueing model
// underlying the BATCH baseline (Ali et al., SC'20): requests arrive as a
// Poisson process at rate lambda, accumulate into batches released when
// either B requests are waiting or the oldest has waited T (the
// full-or-timeout discipline of Section 3.2), and each batch occupies the
// server for a deterministic service time s(b).
//
// Exact analysis of this system is involved; BATCH itself tabulates the
// model numerically. We do the same: DistBatchWait computes per-request
// expected waits by direct numerical evaluation of the batch-formation
// process, and Validate* tests in this package check the results against
// the discrete-event simulator.
package queueing

import (
	"fmt"
	"math"
	"time"
)

// Params describe one batch-service station.
type Params struct {
	Lambda  float64       // request arrival rate (per second), Poisson
	B       int           // maximum batch size
	Timeout time.Duration // max wait of the head request before flush
	Service func(b int) time.Duration
}

// Result carries the analytic predictions.
type Result struct {
	// MeanBatchSize is the expected number of requests per released batch.
	MeanBatchSize float64
	// MeanFormationWait is the expected time a request spends waiting for
	// its batch to be released (excluding service-queue contention).
	MeanFormationWait time.Duration
	// Utilization is the fraction of time the server is busy.
	Utilization float64
	// Stable reports whether the station can keep up with the load.
	Stable bool
	// MeanResponse approximates the end-to-end expected latency
	// (formation wait + service-queue wait + service).
	MeanResponse time.Duration
}

// Analyze evaluates the station numerically.
//
// Batch formation: with Poisson arrivals, the head request waits
// min(Timeout, time for B-1 more arrivals). The (k+1)-th arrival time is
// Erlang(k, lambda). We integrate over the Erlang distribution to get the
// release-time distribution and per-request expected formation waits.
//
// Service queue: released batches form (approximately) a renewal stream
// feeding a deterministic server; we approximate the queueing delay with
// the M/D/1 Pollaczek–Khinchine bound on the batch stream, which is exact
// for Poisson batch releases and conservative otherwise.
func Analyze(p Params) (Result, error) {
	if p.Lambda <= 0 || p.B < 1 || p.Timeout <= 0 || p.Service == nil {
		return Result{}, fmt.Errorf("queueing: invalid params %+v", p)
	}
	if p.B == 1 {
		// Plain M/D/1.
		s := p.Service(1).Seconds()
		rho := p.Lambda * s
		res := Result{MeanBatchSize: 1, Utilization: math.Min(rho, 1), Stable: rho < 1}
		if res.Stable {
			wq := rho * s / (2 * (1 - rho)) // P-K mean queueing delay
			res.MeanResponse = secs(wq + s)
		} else {
			res.MeanResponse = time.Duration(math.MaxInt64)
		}
		return res, nil
	}

	lam := p.Lambda
	T := p.Timeout.Seconds()

	// P(k-th further arrival within T) for k = 1..B-1: Erlang CDF.
	// erlangCDF(k, lam, T) = P(Gamma(k,lam) <= T) = 1 - sum_{i<k} e^-lt (lt)^i/i!
	lt := lam * T
	pois := make([]float64, p.B+1) // Poisson pmf e^-lt lt^i / i!
	pois[0] = math.Exp(-lt)
	for i := 1; i <= p.B; i++ {
		pois[i] = pois[i-1] * lt / float64(i)
	}
	cdfArrivals := make([]float64, p.B) // P(>= k arrivals within T)
	cum := 0.0
	for k := 1; k < p.B; k++ {
		cum += pois[k-1]
		cdfArrivals[k] = 1 - cum // P(N(T) >= k)
	}

	// Probability the batch fills before the timeout = P(N(T) >= B-1).
	cum += pois[p.B-1]
	pFull := 1 - cum + pois[p.B-1] // P(N(T) >= B-1)
	_ = pFull

	// Expected batch size: 1 head + E[min(B-1, N(T))].
	eExtra := 0.0
	for k := 1; k < p.B; k++ {
		eExtra += cdfArrivals[k] // sum_k P(N >= k) = E[min(N, B-1)]
	}
	meanB := 1 + eExtra

	// Head's expected wait: E[min(T, Erlang(B-1))]
	// = integral_0^T P(Erlang(B-1) > t) dt = integral_0^T P(N(t) < B-1) dt.
	// Evaluate numerically (the integrand is smooth).
	const steps = 400
	headWait := 0.0
	dt := T / steps
	for i := 0; i < steps; i++ {
		t := (float64(i) + 0.5) * dt
		headWait += probLess(lam*t, p.B-1) * dt
	}
	// A uniformly random request's expected formation wait is roughly
	// half the head's (later members wait less); weight by position:
	// approximate with headWait * (meanB+1)/(2*meanB).
	meanWait := headWait * (meanB + 1) / (2 * meanB)

	// Service queue on the batch stream.
	batchRate := lam / meanB
	s := p.Service(int(math.Round(meanB))).Seconds()
	rho := batchRate * s
	res := Result{
		MeanBatchSize:     meanB,
		MeanFormationWait: secs(meanWait),
		Utilization:       math.Min(rho, 1),
		Stable:            rho < 1,
	}
	if !res.Stable {
		res.MeanResponse = time.Duration(math.MaxInt64)
		return res, nil
	}
	wq := rho * s / (2 * (1 - rho))
	res.MeanResponse = secs(meanWait + wq + s)
	return res, nil
}

// probLess returns P(Poisson(mean) < k).
func probLess(mean float64, k int) float64 {
	p := math.Exp(-mean)
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += p
		p *= mean / float64(i+1)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
