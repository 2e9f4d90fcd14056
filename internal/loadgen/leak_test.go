package loadgen

// leak_test.go pins loadgen teardown: Run returns with every worker
// gone, in both modes — the open-loop workers end when the pacer closes
// jobs, the closed-loop workers with the run context. The spawn-site
// table (analysis.TestSpawnSitesAreJoined) names
// TestRunLeavesNoGoroutines as the proof for runOpen and runClosed.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/workload"
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

func TestRunLeavesNoGoroutines(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	base := runtime.NumGoroutine()

	if _, err := Run(context.Background(), Config{
		URL:         ts.URL,
		Trace:       workload.Constant(50, time.Second, time.Second),
		SpeedFactor: 20,
		Connections: 8,
		Seed:        1,
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := Run(context.Background(), Config{
		URL:         ts.URL,
		Mode:        ModeClosed,
		Duration:    200 * time.Millisecond,
		Connections: 8,
		Seed:        1,
	}); err != nil {
		t.Fatal(err)
	}

	// The workers are joined by Run itself, which also closes its
	// transport's idle connections.
	settleGoroutines(t, base)
}
