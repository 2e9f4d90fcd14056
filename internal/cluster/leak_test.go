package cluster

// leak_test.go pins FitPool teardown dynamically: goroutinelife proves
// the workers' range loop ends when the jobs channel closes — this
// harness proves the workers are actually gone after Close returns, and
// that a second Close is harmless.

import (
	"runtime"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/perf"
)

// settleGoroutines polls until the goroutine count returns to the
// baseline or the deadline passes, dumping all stacks on failure.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFitPoolCloseStopsWorkers(t *testing.T) {
	c := New(Options{Servers: 16, Shards: 8})
	base := runtime.NumGoroutine()

	for _, workers := range []int{2, 4} {
		p := c.NewFitPool(workers)
		// Exercise the pool so workers have really run before teardown.
		for i := 0; i < 10; i++ {
			if _, _, ok := p.BestFit(perf.Resources{CPU: 1}, 256); !ok {
				t.Fatal("BestFit found no server on a fresh cluster")
			}
		}
		p.Close()
		p.Close() // must not panic on the closed jobs channel
		settleGoroutines(t, base)
	}
}
