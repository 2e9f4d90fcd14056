package gateway

// concurrency_test.go exercises the gateway's one lock under racing
// deploy/delete/invoke traffic (check.sh runs this package with -race):
// one winner per racing deploy and no registry entry left by a loser,
// the admission-control shed path, the deploy body size cap, and the
// pooled response encoder's equality with encoding/json.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/telemetry"
)

// TestDeployRaceNoRegistryLeak: concurrent deploys of one name must
// produce exactly one winner, and the losers' 409s must not leave a
// registry entry behind.
func TestDeployRaceNoRegistryLeak(t *testing.T) {
	gw := New(Config{SpeedFactor: 1000, IdleTimeout: time.Hour, Seed: 1})
	defer gw.Close()
	entry := core.RegistryEntry{Name: "raced", ModelName: "MNIST", SLO: 200 * time.Millisecond}

	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = gw.deploy(entry)
		}(i)
	}
	wg.Wait()

	wins := 0
	for _, err := range errs {
		if err == nil {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("deploy race: %d winners (want 1): %v", wins, errs)
	}
	if n := len(gw.reg.List()); n != 1 {
		t.Fatalf("registry holds %d entries after race (want 1)", n)
	}

	// Undeploy must clear the registry completely — any leaked loser
	// entry would survive here and block (or shadow) a redeploy.
	req := httptest.NewRequest(http.MethodDelete, "/system/functions/raced", nil)
	req.SetPathValue("name", "raced")
	w := httptest.NewRecorder()
	gw.handleDelete(w, req)
	if w.Code != http.StatusNoContent {
		t.Fatalf("delete status = %d", w.Code)
	}
	if n := len(gw.reg.List()); n != 0 {
		t.Fatalf("registry holds %d entries after delete (want 0): leak", n)
	}
	if err := gw.deploy(entry); err != nil {
		t.Fatalf("redeploy after delete: %v", err)
	}
}

// TestConcurrentDeployDeleteInvoke hammers the table from three sides:
// invocations racing deploy/delete cycles must only ever see clean
// outcomes (200/404/429/503), never a panic or a torn table read.
func TestConcurrentDeployDeleteInvoke(t *testing.T) {
	gw := New(Config{SpeedFactor: 2000, IdleTimeout: time.Hour, Seed: 1})
	defer gw.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churner: deploy/delete the function in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		entry := core.RegistryEntry{Name: "churn", ModelName: "MNIST", SLO: 200 * time.Millisecond}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := gw.deploy(entry); err != nil {
				t.Errorf("deploy: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
			req := httptest.NewRequest(http.MethodDelete, "/system/functions/churn", nil)
			req.SetPathValue("name", "churn")
			gw.handleDelete(httptest.NewRecorder(), req)
		}
	}()

	// Steady function deployed once, invoked throughout the churn.
	if err := gw.deploy(core.RegistryEntry{Name: "steady", ModelName: "MNIST", SLO: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	invoke := func(name string) {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/function/"+name, nil)
		req.SetPathValue("name", name)
		w := &benchWriter{hdr: make(http.Header, 4)}
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.code = 0
			gw.handleInvoke(w, req)
			switch w.code {
			case http.StatusOK, http.StatusNotFound,
				http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Errorf("invoke %s: status %d", name, w.code)
				return
			}
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go invoke("churn") // races deletes: must see 404s, not panics
		go invoke("steady")
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestInvokeAfterDeleteReturns404: the function table is the engine's,
// read under the same lock a delete writes it under, so an invoke after a
// delete answers 404 and there is no stale function to dispatch through.
func TestInvokeAfterDeleteReturns404(t *testing.T) {
	gw := New(Config{SpeedFactor: 1000, IdleTimeout: time.Hour, Seed: 1})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "gone", ModelName: "MNIST", SLO: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodDelete, "/system/functions/gone", nil)
	req.SetPathValue("name", "gone")
	gw.handleDelete(httptest.NewRecorder(), req)

	inv := httptest.NewRequest(http.MethodPost, "/function/gone", nil)
	inv.SetPathValue("name", "gone")
	w := httptest.NewRecorder()
	gw.handleInvoke(w, inv)
	if w.Code != http.StatusNotFound {
		t.Fatalf("post-delete invoke status = %d (want 404)", w.Code)
	}
}

// TestInvokeShedsWhenQueueFull: with the per-function queue bound hit,
// admission control answers 429 + Retry-After, and the refusal surfaces
// as shed (not just dropped) in both telemetry formats and in a trace.
func TestInvokeShedsWhenQueueFull(t *testing.T) {
	var trace bytes.Buffer
	gw := New(Config{SpeedFactor: 1000, IdleTimeout: time.Hour, Seed: 1, MaxQueue: 1,
		Observer: telemetry.NewTraceWriter(&trace)})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "busy", ModelName: "MNIST", SLO: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	f := gw.lookup("busy")
	gw.mu.Lock()
	f.inside++ // occupy the single queue slot
	gw.mu.Unlock()

	req := httptest.NewRequest(http.MethodPost, "/function/busy", nil)
	req.SetPathValue("name", "busy")
	w := httptest.NewRecorder()
	gw.handleInvoke(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d (want 429)", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q (want \"1\")", ra)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("shed body = %q (err %v)", w.Body.String(), err)
	}

	snap := gw.Telemetry().SnapshotAt(gw.planeNow())
	found := false
	for _, fn := range snap.Functions {
		if fn.Name == "busy" {
			found = true
			if fn.Shed != 1 || fn.Dropped != 1 {
				t.Fatalf("snapshot shed=%d dropped=%d (want 1/1)", fn.Shed, fn.Dropped)
			}
		}
	}
	if !found {
		t.Fatal("function missing from snapshot")
	}

	mreq := httptest.NewRequest(http.MethodGet, "/system/metrics?format=prometheus", nil)
	mw := httptest.NewRecorder()
	gw.handleMetrics(mw, mreq)
	if !strings.Contains(mw.Body.String(), "infless_shed_total{function=\"busy\"} 1") {
		t.Fatalf("prometheus exposition missing shed counter:\n%s", mw.Body.String())
	}

	gw.mu.Lock() // the trace is written under the plane's lock
	lines := trace.String()
	gw.mu.Unlock()
	if !strings.Contains(lines, `{"event":"shed",`) || !strings.Contains(lines, `"fn":"busy"`) {
		t.Fatalf("trace has no shed line for the 429:\n%s", lines)
	}
}

// TestDeployTemplateTooLarge: a deploy body of either format is read
// through http.MaxBytesReader and answers 413 past the 1MB cap.
func TestDeployTemplateTooLarge(t *testing.T) {
	gw := New(Config{SpeedFactor: 1000, IdleTimeout: time.Hour, Seed: 1})
	defer gw.Close()
	for contentType, big := range map[string][]byte{
		"text/yaml":        bytes.Repeat([]byte("# padding\n"), 1<<20/10+1024),
		"application/json": []byte(`{"name":"` + strings.Repeat("x", 1<<20) + `","model":"MNIST","slo":"1s"}`),
	} {
		req := httptest.NewRequest(http.MethodPost, "/system/functions", bytes.NewReader(big))
		req.Header.Set("Content-Type", contentType)
		w := httptest.NewRecorder()
		gw.handleDeploy(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d (want 413)", contentType, w.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Fatalf("%s: 413 body = %q (err %v)", contentType, w.Body.String(), err)
		}
	}
}

// TestWriteInvokeResponseMatchesJSON pins the pooled hand encoder to
// json.Marshal byte-for-byte, across escaping-relevant names and float
// shapes, so the zero-alloc path can never drift from the struct tags.
func TestWriteInvokeResponseMatchesJSON(t *testing.T) {
	cases := []InvokeResponse{
		{Function: "classify", LatencyMs: 12.375, BatchSize: 4, ColdStart: false, Instance: 3},
		{Function: "a\"b\\c", LatencyMs: 0, BatchSize: 1, ColdStart: true, Instance: 0},
		{Function: "html<&>", LatencyMs: 1e21, BatchSize: 2, ColdStart: false, Instance: 7},
		{Function: "ctl\x01\n\ttab", LatencyMs: 1.5e-7, BatchSize: 1, ColdStart: true, Instance: 1},
		{Function: "unicode-héllo", LatencyMs: 1234567.25, BatchSize: 8, ColdStart: false, Instance: 42},
	}
	for _, res := range cases {
		w := httptest.NewRecorder()
		writeInvokeResponse(w, &res)
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n') // json.Encoder parity: trailing newline
		if got := w.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("encoder drift for %+v:\n got %q\nwant %q", res, got, want)
		}
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("response framing: code=%d ct=%q", w.Code, w.Header().Get("Content-Type"))
		}
	}
}

// TestAppendJSONFloatMatchesJSON pins the latency encoder to json.Marshal
// where its decimal shortcut applies — n/10⁶ over every octave of n up
// to the 10¹⁵ boundary and across it — and where it falls back to
// strconv: random floats that are not micro-decimals, in both the 'f'
// and 'e' ranges.
func TestAppendJSONFloatMatchesJSON(t *testing.T) {
	var got []byte
	checked, mismatches := 0, 0
	check := func(f float64) {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		if got = appendJSONFloat(got[:0], f); !bytes.Equal(got, want) {
			if mismatches++; mismatches <= 10 {
				t.Errorf("appendJSONFloat(%v) = %s, json.Marshal %s", f, got, want)
			}
		}
	}
	for _, n := range []float64{0, 1, 1e6, 1e6 + 1} {
		check(n / 1e6)
	}
	for k := 0.0; k <= 1000; k++ {
		check((1e15 - k) / 1e6)
		check((1e15 + k) / 1e6)
	}
	rng := rand.New(rand.NewSource(1))
	for lo := 1.0; lo < 1e15; lo *= 2 { // 50 octaves, the last cut at 10¹⁵
		width := min(lo, 1e15-lo)
		for i := 0; i < 20_000; i++ {
			check(math.Floor(lo+rng.Float64()*width) / 1e6)
		}
	}
	for i := 0; i < 1_000_000; i++ {
		check(math.Pow(10, -10+32*rng.Float64()))
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d values differ from json.Marshal", mismatches, checked)
	}
}

// TestRegistryConcurrentReadsWrites drives the copy-on-write registry
// from concurrent readers and writers (run under -race by check.sh).
func TestRegistryConcurrentReadsWrites(t *testing.T) {
	reg := core.NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("fn-%d-%d", i, n%8)
				_ = reg.Register(core.RegistryEntry{Name: name, ModelName: "MNIST", SLO: time.Second})
				reg.Delete(name)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.Lookup("fn-0-0")
				if got := reg.List(); len(got) > 16 {
					t.Errorf("list ballooned: %d", len(got))
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestRetireStrandsNoRequest: an instance idling out, over and over,
// while invocations keep arriving right at the idle timeout. With a
// goroutine per instance this raced — an invocation offered to a queue
// whose loop had just left sat there until a >1s deadline. Reclaim is now
// an engine event under the same lock as the arrival, so the arrival
// either finds the instance or finds it gone and waits for a fresh one:
// every invocation must be served.
func TestRetireStrandsNoRequest(t *testing.T) {
	const idle = 150 * time.Microsecond
	gw := New(Config{SpeedFactor: 1e5, IdleTimeout: idle, Seed: 1})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "flappy", ModelName: "MNIST", SLO: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var failed, served atomic.Int64
	stop := time.Now().Add(1500 * time.Millisecond)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Pauses straddle the idle timeout so arrivals keep landing
			// just as the instance decides to leave.
			pause := idle - 40*time.Microsecond + time.Duration(i)*10*time.Microsecond
			for time.Now().Before(stop) {
				if _, err := gw.invoke(context.Background(), "flappy"); err != nil {
					failed.Add(1)
					t.Errorf("invoke: %v", err)
					return
				}
				served.Add(1)
				time.Sleep(pause)
			}
		}(i)
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no invocation was served; the test exercised nothing")
	}
	if launches := gw.Telemetry().Snapshot().Functions[0].Launches; launches < 2 {
		t.Fatalf("%d launches: the instance never idled out, the test exercised nothing", launches)
	}
}
