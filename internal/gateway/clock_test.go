package gateway

// clock_test.go is the harness for driving a Server without sleeping: a
// fake wall clock the test moves by hand (the server is then "manual": no
// pacer, callers never spin), and an observer that tells the test when an
// invocation has been injected, so "start an invocation, then move the
// clock" has a defined order.

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/runtime"
)

// fakeClock is a wall clock that moves only when told to.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// recorder keeps the plane's whole event stream — every field of every
// event, sheds and tiered startup breakdowns included — and signals
// every arrival.
type recorder struct {
	runtime.Tap
	events  []runtime.Event
	arrived chan struct{}
}

func newRecorder() *recorder {
	r := &recorder{arrived: make(chan struct{}, 1<<16)}
	r.Tap.Fn = func(ev runtime.Event) {
		r.events = append(r.events, ev)
		if ev.Kind == runtime.EventArrived {
			r.arrived <- struct{}{}
		}
	}
	return r
}

// manual is a Server on a fake clock at SpeedFactor 1, so plane time is
// exactly the fake clock's offset from the start.
type manual struct {
	*Server
	t     *testing.T
	clock *fakeClock
	rec   *recorder
	wg    sync.WaitGroup // invocations in flight
}

func newManual(t *testing.T, cfg Config) *manual {
	t.Helper()
	m := &manual{t: t, clock: &fakeClock{t: time.Unix(1e9, 0)}, rec: newRecorder()}
	cfg.SpeedFactor, cfg.Observer = 1, m.rec
	m.Server = newServer(cfg, m.clock.now)
	t.Cleanup(m.Close)
	return m
}

// at moves the clock to plane time d and lets the engine catch up.
func (m *manual) at(d time.Duration) {
	m.clock.mu.Lock()
	m.clock.t = m.epoch.Add(d)
	m.clock.mu.Unlock()
	m.step()
}

func (m *manual) mustDeploy(name, model string, slo time.Duration) *function {
	m.t.Helper()
	if err := m.deploy(core.RegistryEntry{Name: name, ModelName: model, SLO: slo}); err != nil {
		m.t.Fatalf("deploy %s: %v", name, err)
	}
	return m.lookup(name)
}

// lookup resolves a deployed function in the engine's table.
func (s *Server) lookup(name string) *function {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Function(name).CtrlState().(*function)
}

// reply is what one invocation returned.
type reply struct {
	res InvokeResponse
	err error
}

// invoke starts an invocation of the named function at the current time
// and returns once the engine has seen it arrive; the reply follows on
// the channel when the clock has moved far enough.
func (m *manual) invoke(name string) <-chan reply {
	out := make(chan reply, 1)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		res, err := m.Server.invoke(context.Background(), name)
		out <- reply{res, err}
	}()
	<-m.rec.arrived
	return out
}

// drain moves the clock from event to event until the engine has
// answered every invocation so far.
func (m *manual) drain() {
	m.t.Helper()
	for {
		m.mu.Lock()
		waiting := len(m.waiters)
		m.mu.Unlock()
		if waiting == 0 {
			return
		}
		next, ok, _ := m.step()
		if !ok {
			m.t.Fatalf("%d invocations unanswered and nothing scheduled", waiting)
		}
		m.at(next)
	}
}
