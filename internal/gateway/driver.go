package gateway

// driver.go paces the gateway's sim.Engine by the wall clock. The engine
// is the whole data plane — batch queues, timeouts, emulated execution
// (a scheduled event, not a sleep), keep-alive, cold-start pricing — and
// knows only model time. The driver maps wall instants to "plane time"
// (model-time offsets from the server epoch, scaled by SpeedFactor) and
// keeps the engine there: whoever takes Server.mu first runs the clock
// up to now (advance), and one pacer goroutine sleeps until the next
// event's wall time so the clock also moves when no request does.
//
// An invocation is: lock → advance → admission → Inject → unlock → wait
// for the engine's completion hook to answer. The engine answers
// every request exactly once (served, shed, or lost with its instance or
// function), so a caller needs no deadline of its own.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	"github.com/tanklab/infless/internal/pool"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/simclock"
)

// function is one deployed function: the engine's state for it, which
// carries it as the controller state, plus what the gateway's policy and
// front door keep per function. All but fs and plan is guarded by mu.
type function struct {
	fs     *sim.FunctionState
	plan   *scheduler.Plan // built with MaxInstancesPerCall = 1
	launch simclock.Timer  // the debounced scale-out, while armed
	// inside counts the invocations the engine holds for the function
	// (backlogged, queued or executing); at Config.MaxQueue arrivals shed.
	inside int
}

// Sentinel errors for the invoke path: no fmt on the hot path, and
// serveInvoke maps each cause to a preformatted body and status code.
var (
	errShedQueueFull = errors.New("gateway: function queue full, request shed") // 429: Config.MaxQueue reached
	errShedSaturated = errors.New("gateway: function saturated, request shed")  // 429: shed from the backlog (hold expired, or cluster full)
	errUnknown       = errors.New("gateway: unknown function")                  // 404
	errLost          = errors.New("gateway: request lost with its instance")    // 503: undeploy or Close with the request inside
)

// invocation is a caller's reply slot. The completion hook sends the one
// outcome; the buffer lets it do so under the engine lock whether or not
// the caller still listens.
type invocation struct {
	f     *function
	reply chan sim.Outcome
}

// invocationPool recycles reply slots. invoke Puts its handle only after
// receiving the reply or when nothing was injected; a caller whose
// context ends first abandons the slot to the garbage collector, and the
// buffered channel absorbs the late reply.
var invocationPool = pool.Of[invocation]{
	New: func() *invocation { return &invocation{reply: make(chan sim.Outcome, 1)} },
}

// spinWindow is the shortest wait worth an OS timer or a goroutine
// hand-off. At high SpeedFactor an emulated execution is nanoseconds of
// wall time; a caller whose answer is that close keeps advancing the
// engine itself instead of parking.
const spinWindow = 2 * time.Microsecond

// farFuture saturates wall-to-model conversions (an hour of IdleTimeout
// at SpeedFactor 1e6 is over a century) so now+d stays representable.
const farFuture = time.Duration(math.MaxInt64 / 2)

// toModel converts a wall duration to model time.
func (s *Server) toModel(d time.Duration) time.Duration {
	return time.Duration(min(float64(d)*s.cfg.SpeedFactor, float64(farFuture)))
}

// planeNow converts the wall clock to plane time — the model-time offset
// since the server started, compressed by SpeedFactor. A rate window of
// 10s always means ten seconds of *model* time regardless of speed.
func (s *Server) planeNow() time.Duration { return s.toModel(s.sinceEpoch()) }

// sinceEpoch is the wall clock's offset from the epoch. On the real clock
// it is one monotonic read: time.Now would read the wall clock as well,
// and a subtraction of two monotonic readings discards it.
func (s *Server) sinceEpoch() time.Duration {
	if s.now != nil {
		return s.now().Sub(s.epoch)
	}
	return time.Since(s.epoch)
}

// wallUntil is the wall time left until plane time t, an hour at most,
// when the wall clock reads wall past the epoch (advance's reading: a
// turn of the pacer or of await reads the clock once).
func (s *Server) wallUntil(t, wall time.Duration) time.Duration {
	left := float64(t)/s.cfg.SpeedFactor - float64(wall)
	return time.Duration(min(left, float64(time.Hour)))
}

// lock takes s.mu on the request path, yielding instead of parking while
// it is held. A critical section is well under a microsecond; parking a
// caller for it costs a futex round trip — tens of microseconds on a
// small VM, 15 % of gw_http's throughput with only two callers.
func (s *Server) lock() {
	for !s.mu.TryLock() {
		runtime.Gosched()
	}
}

// advance runs the engine up to the present and returns the present, as
// the wall clock's offset from the epoch. Callers hold s.mu.
func (s *Server) advance() (wall time.Duration) {
	wall = s.sinceEpoch()
	s.eng.Clock().RunUntil(s.toModel(wall))
	return wall
}

// step advances the engine to the present (wall) and reports when its
// next event is due (ok false: none is). It is one turn of the pacer, and
// how a test on an injected clock moves the plane after moving the clock.
func (s *Server) step() (next time.Duration, ok bool, wall time.Duration) {
	s.mu.Lock()
	wall = s.advance()
	if next, ok = s.eng.Clock().Next(); !ok {
		next = math.MaxInt64
	}
	s.pacerDue = next
	s.mu.Unlock()
	return next, ok, wall
}

// pace is the pacer goroutine: step, sleep until the next event's wall
// time, repeat until Close. Events scheduled by events need no more: they
// are due no earlier than the one the pacer already wakes for. Only an
// injected request schedules out of the blue, and await wakes the pacer
// for that.
func (s *Server) pace() {
	defer s.paced.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		wait := time.Hour
		if next, ok, wall := s.step(); ok {
			wait = s.wallUntil(next, wall)
		}
		if wait < spinWindow {
			runtime.Gosched()
			wait = 0
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-s.wake:
		case <-s.quit:
			return
		}
	}
}

// requestDone is the engine's completion hook (so under s.mu): it hands
// the outcome to the caller waiting on req.
func (s *Server) requestDone(req *sim.Request, o sim.Outcome) {
	if inv, ok := s.waiters[req]; ok {
		delete(s.waiters, req)
		inv.f.inside--
		inv.reply <- o
	}
}

// invoke carries one request through the engine: admission check,
// inject, wait for the answer. While no instance has room the engine
// holds the request in f's backlog and the controller scales out; the
// hold is bounded (reactive.BacklogHold), and past it, or when the
// cluster cannot grow, or when the function already holds MaxQueue
// invocations, the request sheds (429) instead of queueing unboundedly.
func (s *Server) invoke(ctx context.Context, name string) (InvokeResponse, error) {
	inv := invocationPool.Get()
	s.lock()
	s.advance()
	fs := s.eng.Function(name)
	if fs == nil {
		s.mu.Unlock()
		inv.Put()
		return InvokeResponse{}, errUnknown
	}
	f := fs.CtrlState().(*function)
	if max := s.cfg.MaxQueue; max > 0 && f.inside >= max {
		s.eng.Refuse(f.fs)
		s.mu.Unlock()
		inv.Put()
		return InvokeResponse{}, errShedQueueFull
	}
	f.inside++
	inv.V().f = f
	req := s.eng.NewRequest()
	s.waiters[req] = inv.V()
	s.eng.Inject(f.fs, req)
	s.mu.Unlock()
	o, err := s.await(ctx, inv.V())
	if err != nil {
		return InvokeResponse{}, err // inv stays with the engine; see invocationPool
	}
	inv.Put()
	switch {
	case o.Served:
		return InvokeResponse{
			Function:  name,
			LatencyMs: float64(o.Sample.Total()) / float64(time.Millisecond),
			BatchSize: o.Batch,
			ColdStart: o.Sample.Cold > 0,
			Instance:  o.Instance,
		}, nil
	case o.Shed:
		return InvokeResponse{}, errShedSaturated
	default:
		return InvokeResponse{}, errLost
	}
}

// await waits for the engine to answer inv. While the engine's next
// event is within spinWindow the caller keeps the plane moving itself.
// When it stops — answered, or the next event is further off and it
// parks — the pacer takes over, and is woken if that event (scheduled by
// this request, behind the pacer's back) is due before it means to wake.
func (s *Server) await(ctx context.Context, inv *invocation) (sim.Outcome, error) {
	for helping := s.now == nil; helping; { // a manual server's callers never spin
		s.lock()
		wall := s.advance()
		next, ok := s.eng.Clock().Next()
		helping = len(inv.reply) == 0 && ok && s.wallUntil(next, wall) <= spinWindow
		wake := !helping && ok && next < s.pacerDue
		if wake {
			s.pacerDue = next
		}
		s.mu.Unlock()
		if wake {
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}
	select {
	case o := <-inv.reply:
		return o, nil
	case <-ctx.Done():
		return sim.Outcome{}, ctx.Err()
	}
}
