package gateway

// driver_test.go tests what the wall-paced driver must get right that a
// trace-driven run never meets: batch deadlines under live arrivals,
// Close with callers inside, and conservation over random scripts of
// deploy / invoke / delete / idle. All on the injected clock, no sleeps.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/core"
	rt "github.com/tanklab/infless/internal/runtime"
)

// TestBatchDeadlineAnchoredAtArrival: a request that arrives while the
// previous batch executes becomes the head of an empty queue, and its
// batch is submitted at arrive + timeout. The per-instance goroutine
// armed its flush timer when it *dequeued* the head — after the
// execution — so such a request waited up to texec longer, past the SLO.
func TestBatchDeadlineAnchoredAtArrival(t *testing.T) {
	m := newManual(t, Config{IdleTimeout: time.Minute, Seed: 1})
	f := m.mustDeploy("resnet", "ResNet-50", 200*time.Millisecond)
	// A burst, so the instance is sized for batching; serve it out.
	for i := 0; i < 48; i++ {
		m.invoke("resnet")
	}
	m.drain()
	insts := f.fs.Instances()
	inst := insts[len(insts)-1]
	if inst.Cand.B < 2 {
		t.Fatalf("instance has batch size %d; the test needs a batching one", inst.Cand.B)
	}
	// Retire the others so the next requests can only go to inst.
	m.mu.Lock()
	for _, other := range insts[:len(insts)-1] {
		m.eng.Reclaim(other)
	}
	m.mu.Unlock()
	timeout := inst.Queue.Timeout

	t0 := m.planeNow()
	m.invoke("resnet") // alone: submitted when its timeout fires, at t0+timeout
	m.at(t0 + timeout)
	done, _, _ := m.step() // the engine's next event: that batch completing
	if !inst.Busy || done <= t0+timeout {
		t.Fatalf("first request's batch not executing at t0 + timeout (busy %v, next event %v)", inst.Busy, done)
	}
	arrive := (t0 + timeout + done) / 2 // mid-execution
	m.at(arrive)
	m.invoke("resnet")
	m.drain()

	var submits []time.Duration
	for _, ev := range m.rec.events {
		if ev.Kind == rt.EventBatch && ev.At > t0 {
			submits = append(submits, ev.At)
		}
	}
	if len(submits) != 2 || submits[0] != t0+timeout || submits[1] != arrive+timeout {
		t.Fatalf("batches submitted at %v; want [%v %v] = each head's arrival + %v",
			submits, t0+timeout, arrive+timeout, timeout)
	}
}

// TestCloseAnswersEveryCaller: Close with invokers blocked on a cold
// start (real clock, real pacer) answers each of them 503 at once and
// leaves no goroutine behind — it used to give up joining after 5s and
// could return with loops and requests still alive.
func TestCloseAnswersEveryCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	arrived := make(chan struct{}, 64)
	gw := New(Config{SpeedFactor: 1, Seed: 1, Observer: rt.Tap{Fn: func(ev rt.Event) {
		if ev.Kind == rt.EventArrived {
			arrived <- struct{}{}
		}
	}}})
	if err := gw.deploy(core.RegistryEntry{Name: "slow", ModelName: "ResNet-50", SLO: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	const n = 16
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			w := &benchWriter{hdr: make(http.Header, 4)}
			req, _ := http.NewRequest(http.MethodPost, "/function/slow", nil)
			gw.ServeHTTP(w, req)
			codes <- w.code
		}()
	}
	for i := 0; i < n; i++ {
		<-arrived // all inside, held behind a cold start of over a second
	}
	start := time.Now()
	gw.Close()
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusServiceUnavailable {
			t.Errorf("caller answered %d, want 503", code)
		}
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Close and its callers took %v; the cold start was not cut short", d)
	}
	if cpu, gpu := gw.AllocatedResources(); cpu != 0 || gpu != 0 {
		t.Errorf("resources still allocated after Close: cpu=%d gpu=%d", cpu, gpu)
	}
	if err := gw.deploy(core.RegistryEntry{Name: "late", ModelName: "MNIST", SLO: time.Second}); err == nil {
		t.Error("deploy after Close succeeded")
	}
	w := &benchWriter{hdr: make(http.Header, 4)}
	req, _ := http.NewRequest(http.MethodDelete, "/system/functions/slow", nil)
	if gw.ServeHTTP(w, req); w.code != http.StatusNotFound {
		t.Errorf("delete after Close answered %d, want 404", w.code)
	}
	settleGoroutines(t, base)
}

// TestConservation runs seeded random scripts of deploy / invoke /
// delete / idle gaps and checks, for each: every invocation returns
// exactly once with an outcome the plane accounted for (arrived = served
// + dropped, replies 200 = served), and after Close nothing is allocated
// and nobody waits.
func TestConservation(t *testing.T) {
	models := []string{"MNIST", "MobileNet", "ResNet-50"}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newManual(t, Config{IdleTimeout: 2 * time.Second, Seed: seed, MaxQueue: 24})
			live := map[string]bool{}
			var replies []<-chan reply
			now := time.Duration(0)
			for step := 0; step < 400; step++ {
				name := fmt.Sprint("f", rng.Intn(4))
				switch {
				case !live[name]: // deploy
					m.mustDeploy(name, models[rng.Intn(len(models))], time.Duration(100+rng.Intn(400))*time.Millisecond)
					live[name] = true
				case rng.Intn(40) == 0: // delete, with whatever it holds
					req, _ := http.NewRequest(http.MethodDelete, "/system/functions/"+name, nil)
					m.ServeHTTP(&benchWriter{hdr: http.Header{}}, req)
					delete(live, name)
				default: // a burst of invocations
					for i := rng.Intn(12); i >= 0; i-- {
						replies = append(replies, m.invoke(name))
					}
				}
				// Mostly short gaps (batching, queueing), sometimes one
				// long enough for instances to idle out.
				gap := time.Duration(rng.Intn(60)) * time.Millisecond
				if rng.Intn(25) == 0 {
					gap = time.Duration(2+rng.Intn(3)) * time.Second
				}
				now += gap
				m.at(now)
			}
			m.Close()

			var ok, failed uint64
			for _, ch := range replies {
				if r := <-ch; r.err == nil {
					ok++
				} else {
					failed++
				}
			}
			m.wg.Wait()
			var arrived, served, dropped uint64
			for _, fn := range m.Telemetry().Snapshot().Functions {
				arrived += fn.Arrived
				served += fn.Served
				dropped += fn.Dropped
			}
			if arrived != uint64(len(replies)) || served != ok || dropped != failed {
				t.Errorf("invoked %d (ok %d, failed %d) but the plane counts arrived %d, served %d, dropped %d",
					len(replies), ok, failed, arrived, served, dropped)
			}
			if cpu, gpu := m.AllocatedResources(); cpu != 0 || gpu != 0 {
				t.Errorf("resources still allocated after Close: cpu=%d gpu=%d", cpu, gpu)
			}
			if n := len(m.waiters); n != 0 {
				t.Errorf("%d callers still registered after Close", n)
			}
			if ok == 0 || failed == 0 {
				t.Errorf("script exercised one outcome only: %d served, %d failed", ok, failed)
			}
		})
	}
}

// TestInvokeContextCancelled: a caller that gives up leaves; the engine
// still answers its request, into a slot nobody reads.
func TestInvokeContextCancelled(t *testing.T) {
	m := newManual(t, Config{IdleTimeout: time.Minute, Seed: 1})
	m.mustDeploy("f", "MNIST", 200*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		_, err = m.Server.invoke(ctx, "f")
	}()
	<-m.rec.arrived
	cancel()
	wg.Wait()
	if err != context.Canceled {
		t.Fatalf("invoke returned %v, want context.Canceled", err)
	}
	m.drain() // the abandoned request is still served
	if fn := m.Telemetry().Snapshot().Function("f"); fn.Served != 1 {
		t.Fatalf("served = %d, want 1", fn.Served)
	}
}

// manualAt is a Server on a fake clock at speed with function f
// deployed; at moves the clock to wall past the epoch and steps the plane.
func manualAt(t *testing.T, speed float64) (s *Server, at func(wall time.Duration), rec *recorder) {
	t.Helper()
	clock := &fakeClock{t: time.Unix(1e9, 0)}
	rec = newRecorder()
	s = newServer(Config{SpeedFactor: speed, Seed: 1, Observer: rec}, clock.now)
	t.Cleanup(s.Close)
	if err := s.deploy(core.RegistryEntry{Name: "f", ModelName: "MNIST", SLO: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	at = func(wall time.Duration) {
		clock.mu.Lock()
		clock.t = s.epoch.Add(wall)
		clock.mu.Unlock()
		s.step()
	}
	return s, at, rec
}

// servedBetween invokes f at wall offset from, moves the clock to to once
// the request has arrived, and wants it served.
func servedBetween(t *testing.T, s *Server, at func(time.Duration), rec *recorder, from, to time.Duration) {
	t.Helper()
	at(from)
	out := make(chan error, 1)
	go func() {
		_, err := s.invoke(context.Background(), "f")
		out <- err
	}()
	select {
	case <-rec.arrived:
	case err := <-out:
		t.Fatalf("invoke at %v answered before it arrived: %v", from, err)
	}
	at(to)
	if err := <-out; err != nil {
		t.Fatalf("invoke at %v: %v", from, err)
	}
}

// TestInvokePastHorizonAnswers: plane time stops at farFuture, which
// SpeedFactor 1e6 reaches after ≈ 77 minutes of wall time. An invocation
// just before that is served; one after it is answered 503 at once
// instead of being injected into a plane whose clock no longer moves.
func TestInvokePastHorizonAnswers(t *testing.T) {
	s, at, rec := manualAt(t, 1e6)
	// A millisecond of wall time is a thousand seconds of plane time: the
	// cold start and the execution, but not the hour-long keep-alive.
	servedBetween(t, s, at, rec, 76*time.Minute, 76*time.Minute+time.Millisecond)

	at(80 * time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.invoke(ctx, "f"); err != errHorizon {
		t.Fatalf("invoke past the horizon returned %v, want %v", err, errHorizon)
	}
	w := &benchWriter{hdr: make(http.Header, 4)}
	req, _ := http.NewRequest(http.MethodPost, "/function/f", nil)
	if s.ServeHTTP(w, req); w.code != http.StatusServiceUnavailable {
		t.Fatalf("ServeHTTP past the horizon answered %d, want 503", w.code)
	}
	// The keep-alive timer lies past the horizon: the pacer, were there
	// one, would sleep rather than spin for it.
	s.mu.Lock()
	next, ok := s.eng.Clock().Next()
	s.mu.Unlock()
	if !ok || next <= farFuture {
		t.Fatalf("next event at %v (ok %v), want one past the horizon", next, ok)
	}
	if d := s.wallUntil(next, 80*time.Minute); d != time.Hour {
		t.Fatalf("wallUntil an unreachable event = %v, want an hour", d)
	}
}

// TestInvokeSlowMotionServed: below SpeedFactor 1 the horizon lies
// further off than real time, so an ordinary invocation is served.
func TestInvokeSlowMotionServed(t *testing.T) {
	for _, speed := range []float64{0.5, 0.25} {
		s, at, rec := manualAt(t, speed)
		servedBetween(t, s, at, rec, time.Minute, 10*time.Minute)
	}
}
