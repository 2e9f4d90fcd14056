package gateway

// leak_test.go is the dynamic half of the goroutinelife contract: the
// analyzer proves the pacer CAN exit; this harness proves Close actually
// joins it. Settle-and-compare around a full deploy/invoke/Close cycle
// pins the teardown (TestCloseAnswersEveryCaller does the same with
// callers still inside).

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
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
