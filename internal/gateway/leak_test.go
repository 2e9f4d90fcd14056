package gateway

// leak_test.go proves Close joins the pacer newServer spawns, however
// many times and from however many goroutines it is called; the
// spawn-site table (analysis.TestSpawnSitesAreJoined) names
// TestCloseJoinsPacer as that proof. Settle-and-compare around a full
// deploy/invoke/Close cycle pins the teardown
// (TestCloseAnswersEveryCaller does the same with callers still inside).

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/core"
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

func TestCloseJoinsPacer(t *testing.T) {
	base := runtime.NumGoroutine()

	gw := New(Config{SpeedFactor: 500, IdleTimeout: 2 * time.Second, Seed: 1})
	ts := httptest.NewServer(gw)
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}

	// Deploy two functions and invoke both so instances are live, with
	// keep-alive events pending, when Close runs.
	for _, name := range []string{"classify", "detect"} {
		resp := deployJSON(t, ts, name, "MobileNet", "100ms")
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("deploy %s: status %d", name, resp.StatusCode)
		}
		for i := 0; i < 3; i++ {
			resp, err := client.Post(ts.URL+"/function/"+name, "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("invoke %s: status %d", name, resp.StatusCode)
			}
		}
	}

	tr.CloseIdleConnections()
	ts.Close()
	gw.Close()
	settleGoroutines(t, base)
}

// TestCloseTwiceAndConcurrently: Close racing Close on a gateway with
// live instances. Nobody panics on the stop channel (sync.OnceFunc
// closes it once), and every caller — not only the first — returns only
// after the pacer has exited: each then reads pacerDue, which the pacer
// writes, without the lock, so under -race an early return is a reported
// data race, and all must read the one value the pacer left behind.
func TestCloseTwiceAndConcurrently(t *testing.T) {
	base := runtime.NumGoroutine()
	gw := New(Config{SpeedFactor: 500, IdleTimeout: 2 * time.Second, Seed: 1})
	for _, name := range []string{"classify", "detect"} {
		if err := gw.deploy(core.RegistryEntry{Name: name, ModelName: "MobileNet", SLO: 100 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if _, err := gw.invoke(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}

	// Keep the pacer turning (each wake is a step, each step a write of
	// pacerDue) for as long as it lives, so that a closer that returned
	// before it died would be caught reading beside it.
	poked := make(chan struct{})
	go func() {
		defer close(poked)
		for {
			select {
			case gw.wake <- struct{}{}:
			case <-gw.quit:
				return
			}
		}
	}()

	const closers = 8
	dues := make([]time.Duration, closers)
	var wg sync.WaitGroup
	for i := range dues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gw.Close()
			select {
			case <-gw.quit:
			default:
				t.Error("Close returned with the stop channel open")
			}
			dues[i] = gw.pacerDue
		}()
	}
	wg.Wait()
	<-poked
	for i, due := range dues {
		if due != dues[0] {
			t.Errorf("closer %d saw pacerDue %v, closer 0 saw %v: a pacer was still running", i, due, dues[0])
		}
	}
	gw.Close() // and once more, long after
	if cpu, gpu := gw.AllocatedResources(); cpu != 0 || gpu != 0 {
		t.Errorf("resources still allocated after Close: cpu=%d gpu=%d", cpu, gpu)
	}
	settleGoroutines(t, base)
}
