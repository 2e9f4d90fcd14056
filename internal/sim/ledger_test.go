package sim_test

// ledger_test.go checks the engine's one ledger against an independent
// one: a counting runtime.Observer attached beside the collector must
// agree with the final snapshot, event for event, on seeded random
// scenarios — and no request may be unaccounted for after the drain.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

// tally is what the counting observer knows about one function.
type tally struct {
	arrived, served, dropped, shed, batched uint64
	launches, coldLaunches                  int
}

// counter books every event itself. Like the collector it cuts served,
// dropped and shed off before the warm-up and nothing else; the whole-run
// totals have no cut-off.
type counter struct {
	runtime.NopObserver
	warmup                   time.Duration
	fns                      map[string]*tally
	arrived, served, dropped uint64
}

func (c *counter) fn(name string) *tally {
	if c.fns[name] == nil {
		c.fns[name] = &tally{}
	}
	return c.fns[name]
}

func (c *counter) RequestArrived(fn string, _ time.Duration) {
	c.arrived++
	c.fn(fn).arrived++
}

func (c *counter) BatchSubmitted(fn string, _, size int, _ time.Duration) {
	c.fn(fn).batched += uint64(size)
}

func (c *counter) RequestServed(fn string, _ metrics.Sample, now time.Duration) {
	c.served++
	if now >= c.warmup {
		c.fn(fn).served++
	}
}

func (c *counter) RequestDropped(fn string, now time.Duration) {
	c.dropped++
	if now >= c.warmup {
		c.fn(fn).dropped++
	}
}

func (c *counter) RequestShed(fn string, now time.Duration) {
	if now >= c.warmup {
		c.fn(fn).shed++
	}
}

func (c *counter) InstanceLaunched(fn string, _ int, cold bool, _, _ time.Duration) {
	c.fn(fn).launches++
	if cold {
		c.fn(fn).coldLaunches++
	}
}

// holding is the INFless controller with a front door's backlog rule:
// requests it cannot place in time are shed, not just dropped.
type holding struct{ *core.Controller }

func (holding) BacklogHold(f *sim.FunctionState) time.Duration { return f.Spec.SLO }

func TestLedgerAgreement(t *testing.T) {
	// Run's drain covers the backlog only: a request still queued on an
	// instance or executing at Duration is in neither total. So, as in
	// the benchmark's sim_fleet cells, every trace goes quiet before the
	// end, for longer than any SLO plus an autoscaler tick.
	const duration, quiet = 20 * time.Second, 3 * time.Second
	pred := scheduler.NewPredictorCache(profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions())))
	zoo := model.All()
	var ran, shedSeeds, failedSeeds int
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			ran++
			rng := rand.New(rand.NewSource(seed))
			servers := 2 + rng.Intn(15)
			cfg := sim.Config{
				Cluster:  cluster.New(cluster.Options{Servers: servers}),
				Seed:     seed,
				Duration: duration,
				Warmup:   time.Duration(rng.Intn(2)) * 2 * time.Second,
			}
			if rng.Intn(2) == 0 {
				storage := artifact.DefaultConfig()
				cfg.Storage = &storage
			}
			if rng.Intn(2) == 0 {
				cfg.Failures = []sim.ServerFailure{{
					Server:   rng.Intn(servers),
					At:       time.Duration(3+rng.Intn(12)) * time.Second,
					Duration: time.Duration(rng.Intn(2)) * 3 * time.Second,
				}}
				failedSeeds++
			}
			var ctrl sim.Controller = core.New(core.Options{Predictor: pred})
			sheds := rng.Intn(2) == 0
			if sheds {
				ctrl = holding{core.New(core.Options{Predictor: pred})}
			}
			e := sim.New(ctrl, cfg)
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				rps := 20 + 500*rng.Float64()
				tr := workload.Constant(rps, duration, time.Second)
				if rng.Intn(2) == 0 {
					// A random stretch of a bursty day, a minute to 250 ms.
					tr = workload.Bursty(workload.Options{Days: 1, Seed: rng.Int63(), BaseRPS: rps})
					tr.RPS, tr.Step = tr.RPS[rng.Intn(len(tr.RPS)/2):], 250*time.Millisecond
				}
				for j := range tr.RPS {
					if time.Duration(j+1)*tr.Step > duration-quiet {
						tr.RPS[j] = 0
					}
				}
				e.AddFunction(sim.FunctionSpec{
					Name:  fmt.Sprint("f", i),
					Model: zoo[rng.Intn(len(zoo))],
					SLO:   time.Duration(100+rng.Intn(400)) * time.Millisecond,
					Trace: tr,
				})
			}
			seen := &counter{warmup: cfg.Warmup, fns: map[string]*tally{}}
			e.Observe(seen)
			res := e.Run()

			replay := fmt.Sprintf("%d servers, %d functions, warmup %v, tiered %v, failures %v, sheds %v; replay: go test ./internal/sim -run 'TestLedgerAgreement/seed=%d$'",
				servers, len(e.Functions()), cfg.Warmup, cfg.Storage != nil, cfg.Failures, sheds, seed)
			if seen.arrived == 0 || seen.arrived != seen.served+seen.dropped {
				t.Errorf("%s\n  arrived %d != served %d + dropped %d after the drain", replay, seen.arrived, seen.served, seen.dropped)
			}
			if len(res.Telemetry.Functions) != len(seen.fns) {
				t.Errorf("%s\n  the snapshot has %d functions, the observer saw %d", replay, len(res.Telemetry.Functions), len(seen.fns))
			}
			var sum uint64
			for _, f := range res.Telemetry.Functions {
				var batched uint64
				for _, n := range f.BatchServed {
					batched += n
				}
				got := tally{f.Arrived, f.Served, f.Dropped, f.Shed, batched, f.Launches, f.ColdLaunches}
				if want := *seen.fn(f.Name); got != want {
					t.Errorf("%s\n  %s: the snapshot has %+v, the observer counted %+v", replay, f.Name, got, want)
				}
				if f.Shed > 0 {
					shedSeeds++
				}
				sum += f.Served + f.Dropped
			}
			if res.Served()+res.Dropped() != sum {
				t.Errorf("%s\n  Result totals %d + %d, the snapshot's rows sum to %d", replay, res.Served(), res.Dropped(), sum)
			}
		})
	}
	if ran == 60 && (shedSeeds == 0 || failedSeeds == 0) {
		t.Errorf("the scenarios never shed (%d) or never lost a server (%d): the generator covers too little", shedSeeds, failedSeeds)
	}
}
