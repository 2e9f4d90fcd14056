// Package loadgen drives an INFless gateway (or any HTTP endpoint) with
// trace-shaped request load and collects client-side latency statistics —
// the role of the paper artifact's loadGen/LoadGenSimClient tools.
//
// Two arrival disciplines are supported. The open loop (default) plays a
// workload trace: arrivals are Poisson within each trace step and do not
// wait for responses, so offered load is independent of server latency —
// the discipline that exposes queueing collapse. The closed loop keeps a
// fixed number of connections issuing back-to-back requests, the
// discipline that measures peak sustainable throughput. Saturate composes
// open-loop steps into a max-sustained-RPS search.
//
// Requests are executed by a fixed worker pool (Config.Connections) with
// per-worker latency recorders, so the generator itself stays off any
// shared lock on the request path; 429 responses (the gateway's
// admission-control shed) are counted separately from hard failures.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/pool"
	"github.com/tanklab/infless/internal/workload"
)

// Mode selects the arrival discipline.
type Mode string

const (
	// ModeOpen plays the trace's arrival process regardless of response
	// latency (default).
	ModeOpen Mode = "open"
	// ModeClosed keeps Connections workers issuing back-to-back requests
	// for Duration; the Trace is not consulted.
	ModeClosed Mode = "closed"
)

// Config describes one load-generation run.
type Config struct {
	// URL is the invocation endpoint (POST per request).
	URL string
	// Mode is the arrival discipline (default ModeOpen).
	Mode Mode
	// Trace shapes the arrival rate in ModeOpen; arrivals are Poisson
	// within each trace step.
	Trace *workload.Trace
	// Duration bounds the run (0 = the trace's own length; required in
	// ModeClosed).
	Duration time.Duration
	// SpeedFactor compresses trace time: 60 plays one trace minute per
	// wall second. Default 1.
	SpeedFactor float64
	// Connections is the worker-pool size: the bound on in-flight
	// requests in both modes and the closed-loop concurrency (default 64).
	Connections int
	// SLO classifies client-observed latencies (0 disables).
	SLO time.Duration
	// Seed drives the arrival process.
	Seed int64
}

// Stats summarizes a run from the client's perspective.
type Stats struct {
	Sent   uint64
	OK     uint64
	Failed uint64
	// Shed counts 429 responses: load the server refused under admission
	// control rather than queueing unboundedly. Sheds are not failures —
	// a saturated server is supposed to produce them.
	Shed        uint64
	MeanMs      float64
	P50Ms       float64
	P99Ms       float64
	P999Ms      float64
	SLOMissRate float64
	// RPS is client-observed goodput: OK responses per wall-clock second.
	RPS     float64
	Elapsed time.Duration
}

// recorderPool recycles per-worker latency recorders across runs:
// Saturate replays Run once per ramp step, and a recorder's histogram
// is a few hundred buckets — pooling keeps a 16-step ramp with 256
// connections from building four thousand of them. Run takes recorders
// out for its workers and puts every one back only after merge() has
// folded the counts.
var recorderPool = pool.Of[metrics.LatencyRecorder]{
	New: func() *metrics.LatencyRecorder { return metrics.NewLatencyRecorder(0) },
}

// worker executes requests and records into its own recorder, so the
// request path shares no lock with other workers.
type worker struct {
	rec    pool.Handle[metrics.LatencyRecorder]
	sent   uint64
	failed uint64
	shed   uint64
	ok     uint64
}

func (w *worker) do(ctx context.Context, client *http.Client, url string, speed float64) {
	w.sent++
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		w.failed++
		w.rec.V().Drop()
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		w.failed++
		w.rec.V().Drop()
		return
	}
	code := resp.StatusCode
	resp.Body.Close()
	switch {
	case code == http.StatusOK:
		w.ok++
		lat := time.Duration(float64(time.Since(t0)) * speed)
		w.rec.V().Observe(metrics.Sample{Exec: lat})
	case code == http.StatusTooManyRequests:
		w.shed++
		w.rec.V().Drop()
	default:
		w.failed++
		w.rec.V().Drop()
	}
}

// Run generates the load and blocks until the trace (or Duration) ends
// and all in-flight requests complete. Cancel ctx to stop early.
func Run(ctx context.Context, cfg Config) (Stats, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeOpen
	}
	if cfg.URL == "" {
		return Stats{}, fmt.Errorf("loadgen: URL required")
	}
	if cfg.Mode == ModeOpen && cfg.Trace == nil {
		return Stats{}, fmt.Errorf("loadgen: Trace required in open-loop mode")
	}
	if cfg.Mode == ModeClosed && cfg.Duration <= 0 {
		return Stats{}, fmt.Errorf("loadgen: Duration required in closed-loop mode")
	}
	if cfg.SpeedFactor <= 0 {
		cfg.SpeedFactor = 1
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 64
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Connections,
			MaxIdleConnsPerHost: cfg.Connections,
		},
	}
	defer client.CloseIdleConnections()

	workers := make([]*worker, cfg.Connections)
	for i := range workers {
		workers[i] = &worker{rec: recorderPool.Get()}
		workers[i].rec.V().Reset(cfg.SLO)
	}

	start := time.Now()
	var err error
	switch cfg.Mode {
	case ModeClosed:
		runClosed(ctx, cfg, client, workers)
		err = ctx.Err()
	default:
		err = runOpen(ctx, cfg, client, workers, start)
	}
	stats := merge(workers, time.Since(start))
	// All worker goroutines have joined and merge has read the counts:
	// the recorders go back to the pool with no live references.
	for _, w := range workers {
		w.rec.Put()
	}
	return stats, err
}

// runClosed keeps every worker issuing back-to-back requests until the
// duration elapses or ctx is canceled.
func runClosed(ctx context.Context, cfg Config, client *http.Client, workers []*worker) {
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for ctx.Err() == nil {
				w.do(ctx, client, cfg.URL, cfg.SpeedFactor)
			}
			// The final request of each worker died to the deadline —
			// don't count an artifact of the harness as a server failure.
			if w.failed > 0 {
				w.failed--
				w.sent--
			}
		}(w)
	}
	wg.Wait()
}

// runOpen plays the trace's arrival process: a pacer converts virtual
// arrival times to wall time and hands arrivals to the worker pool. When
// every connection is busy the pacer blocks — offered load beyond the
// pool bound shows up as achieved RPS falling under the target, the
// saturation signal Saturate looks for.
func runOpen(ctx context.Context, cfg Config, client *http.Client, workers []*worker, start time.Time) error {
	limit := cfg.Duration
	if limit == 0 {
		limit = cfg.Trace.Duration()
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	stream := workload.NewStream(cfg.Trace, limit, rng)

	jobs := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for range jobs {
				w.do(ctx, client, cfg.URL, cfg.SpeedFactor)
			}
		}(w)
	}

	var err error
	pacer := time.NewTimer(time.Hour)
	defer pacer.Stop()
pace:
	for {
		at, ok := stream.Next()
		if !ok {
			break
		}
		// Convert virtual arrival time to wall time. Short gaps (under
		// ~200µs) are not worth a timer round trip at saturation rates;
		// dispatch immediately and let the backlog self-correct.
		wall := start.Add(time.Duration(float64(at) / cfg.SpeedFactor))
		if d := time.Until(wall); d > 200*time.Microsecond {
			pacer.Reset(d)
			select {
			case <-pacer.C:
			case <-ctx.Done():
				err = ctx.Err()
				break pace
			}
		}
		select {
		case jobs <- struct{}{}:
		case <-ctx.Done():
			err = ctx.Err()
			break pace
		}
	}
	close(jobs)
	wg.Wait()
	return err
}

// merge folds the per-worker recorders into one Stats.
func merge(workers []*worker, elapsed time.Duration) Stats {
	rec := metrics.NewLatencyRecorder(0) // violations travel in Merge
	var s Stats
	for _, w := range workers {
		s.Sent += w.sent
		s.OK += w.ok
		s.Failed += w.failed
		s.Shed += w.shed
		rec.Merge(w.rec.V())
	}
	s.MeanMs = float64(rec.Mean()) / float64(time.Millisecond)
	s.P50Ms = float64(rec.Percentile(0.5)) / float64(time.Millisecond)
	s.P99Ms = float64(rec.Percentile(0.99)) / float64(time.Millisecond)
	s.P999Ms = float64(rec.Percentile(0.999)) / float64(time.Millisecond)
	s.SLOMissRate = rec.ViolationRate()
	s.Elapsed = elapsed
	if sec := elapsed.Seconds(); sec > 0 {
		s.RPS = float64(s.OK) / sec
	}
	return s
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d ok=%d shed=%d failed=%d rps=%.0f mean=%.1fms p50=%.1fms p99=%.1fms p999=%.1fms sloMiss=%.2f%% elapsed=%v",
		s.Sent, s.OK, s.Shed, s.Failed, s.RPS, s.MeanMs, s.P50Ms, s.P99Ms, s.P999Ms, 100*s.SLOMissRate, s.Elapsed.Round(time.Millisecond))
}
