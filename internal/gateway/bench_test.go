package gateway

// bench_test.go pins the invoke hot path: handleInvoke runs once per
// request, so its work (function lookup, the engine round trip, response
// encoding) must stay cheap and allocation-free in the repository's own
// code: scripts/check.sh gates BenchmarkHandleInvoke at 0 allocs/op.
// Speed is measured by `go run ./benchmark` (gw_dispatch, gw_http).
//
// The benchmarks call handleInvoke directly with a reused request and a
// trivial ResponseWriter, so they measure the gateway's code, not
// net/http's server loop (the loadgen harness covers the full stack).

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
func newBenchServer(b *testing.B, speed float64) (*Server, *http.Request) {
	b.Helper()
	gw := New(Config{SpeedFactor: speed, IdleTimeout: time.Hour, Seed: 1})
	b.Cleanup(gw.Close)
	entry := core.RegistryEntry{Name: "bench", ModelName: "MNIST", SLO: 200 * time.Millisecond}
	if err := gw.deploy(entry); err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/function/bench", nil)
	req.SetPathValue("name", "bench")
	w := &benchWriter{hdr: make(http.Header, 4)}
	// Warm up: drive requests until the instance is past its cold start
	// and answering 200s.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		w.code = 0
		gw.handleInvoke(w, req)
		if w.code == http.StatusOK && i >= 64 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("warmup never reached steady state (last status %d)", w.code)
		}
	}
	return gw, req
}

// BenchmarkHandleInvoke is the allocs/op gate for the steady-state
// invoke path: lookup, inject, batch execution (accelerated 20000x so
// emulated time is negligible), and response encoding.
func BenchmarkHandleInvoke(b *testing.B) {
	gw, req := newBenchServer(b, 20000)
	w := &benchWriter{hdr: make(http.Header, 4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code = 0
		gw.handleInvoke(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status = %d", w.code)
		}
	}
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
		req.SetPathValue("name", "bench")
		w := &benchWriter{hdr: make(http.Header, 4)}
		for pb.Next() {
			w.code = 0
			gw.handleInvoke(w, req)
			switch w.code {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				b.Fatalf("status = %d", w.code)
			}
		}
	})
}
