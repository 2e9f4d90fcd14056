package gateway

// bench_test.go measures the one shape of the invoke hot path the
// repository's benchmark does not: contended dispatch. Single-caller
// speed and the allocation gate are `go run ./benchmark` (gw_dispatch,
// gw_http; scripts/check.sh runs a one-second gw_dispatch smoke).
//
// The benchmark calls ServeHTTP directly with a reused request and a
// trivial ResponseWriter, so it measures the gateway's code, not
// net/http's server loop (the loadgen harness covers the full stack).
// The same set-up backs the zero-allocation test of that entry point.

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/core"
)

// benchWriter is a minimal alloc-free ResponseWriter: one reused header
// map, body bytes discarded.
type benchWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *benchWriter) Header() http.Header         { return w.hdr }
func (w *benchWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *benchWriter) WriteHeader(c int)           { w.code = c }

// newBenchServer deploys one small function on a heavily accelerated
// gateway and warms its first instance so the measured loop sees only
// the steady state.
func newBenchServer(tb testing.TB, speed float64) (*Server, *http.Request) {
	tb.Helper()
	gw := New(Config{SpeedFactor: speed, IdleTimeout: time.Hour, Seed: 1})
	tb.Cleanup(gw.Close)
	entry := core.RegistryEntry{Name: "bench", ModelName: "MNIST", SLO: 200 * time.Millisecond}
	if err := gw.deploy(entry); err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/function/bench", nil)
	w := &benchWriter{hdr: make(http.Header, 4)}
	// Warm up: drive requests until the instance is past its cold start
	// and answering 200s.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		w.code = 0
		gw.ServeHTTP(w, req)
		if w.code == http.StatusOK && i >= 64 {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatalf("warmup never reached steady state (last status %d)", w.code)
		}
	}
	return gw, req
}

// BenchmarkHandleInvokeParallel is the saturation shape: many request
// goroutines dispatching through one gateway, all meeting on the one
// engine lock (a critical section is well under a microsecond).
func BenchmarkHandleInvokeParallel(b *testing.B) {
	gw, _ := newBenchServer(b, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodPost, "/function/bench", nil)
		w := &benchWriter{hdr: make(http.Header, 4)}
		for pb.Next() {
			w.code = 0
			gw.ServeHTTP(w, req)
			switch w.code {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				b.Fatalf("status = %d", w.code)
			}
		}
	})
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestServeHTTPInvokeDoesNotAllocate: a steady-state invocation through
// the real entry point — route check, engine round trip, encode —
// allocates nothing. The mux it bypasses allocated 16 B a request.
func TestServeHTTPInvokeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects under the race detector")
	}
	gw, req := newBenchServer(t, 1e6)
	w := &benchWriter{hdr: make(http.Header, 4)}
	allocs := testing.AllocsPerRun(1000, func() {
		w.code = 0
		gw.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("status = %d", w.code)
	}
	if allocs != 0 {
		t.Fatalf("ServeHTTP allocates %.1f times per invocation, want 0", allocs)
	}
}
