package gateway

// metrics_test.go pins the redesigned /system/metrics contract: the JSON
// document, the Prometheus exposition and the in-process collector are
// three renderings of the same telemetry.Collector state, so the values
// a scraper sees must equal the values an embedding caller reads from
// Server.Telemetry(). Also covers the normalized REST error surface.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/telemetry"
)

func TestMetricsEndpointsAgreeWithCollector(t *testing.T) {
	gw, ts := testServer(t)
	c := NewClient(ts.URL)

	if err := c.Deploy(DeployRequest{Name: "f", Model: "MNIST", SLO: "500ms"}); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.Invoke("f"); err != nil {
			t.Fatal(err)
		}
	}

	// The collector is the source of truth; both endpoint renderings
	// must agree with it. Counters are quiescent here (no in-flight
	// requests), so all three reads see identical totals.
	direct := gw.Telemetry().SnapshotAt(gw.planeNow())
	if len(direct.Functions) != 1 || direct.Functions[0].Served != n {
		t.Fatalf("collector snapshot = %+v", direct.Functions)
	}
	fn := direct.Functions[0]

	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != telemetry.SchemaVersion {
		t.Errorf("schemaVersion = %d, want %d", snap.SchemaVersion, telemetry.SchemaVersion)
	}
	if len(snap.Functions) != 1 {
		t.Fatalf("JSON snapshot has %d functions", len(snap.Functions))
	}
	got := snap.Functions[0]
	if got.Name != fn.Name || got.Served != fn.Served || got.Dropped != fn.Dropped ||
		got.Launches != fn.Launches || got.ColdLaunches != fn.ColdLaunches {
		t.Errorf("JSON endpoint diverges from collector:\n got %+v\nwant %+v", got, fn)
	}
	if got.P99Ms != fn.P99Ms || got.MeanMs != fn.MeanMs {
		t.Errorf("JSON latency stats diverge: got p99=%v mean=%v, want p99=%v mean=%v",
			got.P99Ms, got.MeanMs, fn.P99Ms, fn.MeanMs)
	}

	text, err := c.MetricsPrometheus()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`infless_requests_total{function="f",outcome="served"} %d`, fn.Served),
		fmt.Sprintf(`infless_cold_starts_total{function="f"} %d`, fn.ColdLaunches),
		fmt.Sprintf(`infless_request_latency_seconds_count{function="f"} %d`, fn.Served),
		`infless_function_slo_seconds{function="f"} 0.5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// The exposition must come with the Prometheus text content type.
	resp, err := http.Get(ts.URL + "/system/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prometheus content type = %q", ct)
	}
}

// TestRESTErrorSurface pins the normalized error contract: JSON bodies
// with an "error" key, application/json content type, and the specific
// status codes of the redesign (404 unknown function, 409 duplicate,
// 400 bad format).
func TestRESTErrorSurface(t *testing.T) {
	_, ts := testServer(t)

	assertJSONError := func(t *testing.T, resp *http.Response, wantCode int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("status = %d, want %d", resp.StatusCode, wantCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type = %q, want application/json", ct)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
			t.Errorf("body is not {\"error\": ...} JSON: %v %v", body, err)
		}
	}

	// Unknown function: invoke and undeploy both 404.
	resp, _ := http.Post(ts.URL+"/function/ghost", "application/json", nil)
	assertJSONError(t, resp, http.StatusNotFound)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/system/functions/ghost", nil)
	resp, _ = http.DefaultClient.Do(req)
	assertJSONError(t, resp, http.StatusNotFound)

	// Duplicate deploy: 409.
	if resp := deployJSON(t, ts, "dup", "MNIST", "1s"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first deploy = %d", resp.StatusCode)
	}
	assertJSONError(t, deployJSON(t, ts, "dup", "MNIST", "1s"), http.StatusConflict)

	// Deploy with an unsupported media type: 415.
	resp, _ = http.Post(ts.URL+"/system/functions", "text/plain", strings.NewReader("{}"))
	assertJSONError(t, resp, http.StatusUnsupportedMediaType)

	// Unknown metrics format: 400.
	resp, _ = http.Get(ts.URL + "/system/metrics?format=xml")
	assertJSONError(t, resp, http.StatusBadRequest)

	// Success responses carry Content-Type too.
	resp, _ = http.Get(ts.URL + "/system/functions")
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("list content type = %q", ct)
	}
}

// TestSharedCollectorAcrossPlanes checks Server.Telemetry: an embedding
// caller reads the collector the gateway feeds, live.
func TestSharedCollectorAcrossPlanes(t *testing.T) {
	gw := New(Config{SpeedFactor: 500, IdleTimeout: time.Second, Seed: 1})
	ts := httptest.NewServer(gw)
	defer ts.Close()
	defer gw.Close()
	col := gw.Telemetry()
	c := NewClient(ts.URL)
	if err := c.Deploy(DeployRequest{Name: "f", Model: "MNIST", SLO: "500ms"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("f"); err != nil {
		t.Fatal(err)
	}
	if fn := col.Snapshot().Function("f"); fn == nil || fn.Served != 1 {
		t.Fatalf("collector missed events: %+v", fn)
	}
}

// TestMetricsDuringLoad reads a live server's collector from other
// goroutines — /system/metrics in both formats and Telemetry().Snapshot()
// — while callers invoke and the pacer launches, batches and reclaims.
// The engine books events without a lock and snapshots take the server's
// (the collector's guard), so under -race a read that skips the guard
// fails here. Every document must be one instant: one caller invokes the
// round functions in name order and waits for each reply, so between
// two events their arrival counts never increase along the name order
// and differ by at most one, while other callers load a fifth function.
func TestMetricsDuringLoad(t *testing.T) {
	gw := New(Config{SpeedFactor: 500, IdleTimeout: 10 * time.Millisecond, Seed: 1})
	defer gw.Close()
	round := []string{"r0", "r1", "r2", "r3"}
	for _, name := range append([]string{"load"}, round...) {
		if err := gw.deploy(core.RegistryEntry{Name: name, ModelName: "MNIST", SLO: 200 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}

	scrape := func() telemetry.Snapshot {
		var s telemetry.Snapshot
		for _, format := range []string{"prometheus", "json"} {
			w := httptest.NewRecorder()
			gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/system/metrics?format="+format, nil))
			if w.Code != http.StatusOK {
				t.Errorf("%s scrape: status %d", format, w.Code)
			}
			if format == "json" {
				if err := json.Unmarshal(w.Body.Bytes(), &s); err != nil {
					t.Errorf("json scrape: %v", err)
				}
			}
		}
		return s
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	reads := make([]int, 2)
	for k, read := range []func() telemetry.Snapshot{scrape, gw.Telemetry().Snapshot} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := map[string]uint64{}
			for {
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
				s := read()
				for i := range s.Functions {
					f := &s.Functions[i]
					if f.Served+f.Dropped > f.Arrived || f.Shed > f.Dropped || f.Arrived < last[f.Name] {
						t.Errorf("%s: served %d + dropped %d (shed %d) of %d arrived, %d before",
							f.Name, f.Served, f.Dropped, f.Shed, f.Arrived, last[f.Name])
						return
					}
					last[f.Name] = f.Arrived
				}
				first := s.Function(round[0])
				for j := 1; j < len(round); j++ {
					f, prev := s.Function(round[j]), s.Function(round[j-1])
					if f.Arrived > prev.Arrived || f.Arrived+1 < first.Arrived {
						t.Errorf("rows from different instants: %s arrived %d, %s %d, %s %d",
							f.Name, f.Arrived, prev.Name, prev.Arrived, first.Name, first.Arrived)
						return
					}
				}
				reads[k]++
			}
		}()
	}
	ctx, stop := context.WithCancel(context.Background())
	var loaders sync.WaitGroup
	for i := 0; i < 2; i++ {
		loaders.Add(1)
		go func() {
			defer loaders.Done()
			for ctx.Err() == nil {
				_, _ = gw.invoke(ctx, "load")
			}
		}()
	}
	const rounds = 100
	for i := 0; i < rounds; i++ {
		for _, name := range round {
			if _, err := gw.invoke(context.Background(), name); err != nil {
				t.Fatalf("invoke %s: %v", name, err)
			}
		}
		if i%25 == 24 {
			time.Sleep(20 * time.Millisecond) // idle: the pacer reclaims
		}
	}
	stop()
	loaders.Wait()
	close(done)
	readers.Wait()

	s := gw.Telemetry().Snapshot()
	for _, name := range round {
		if f := s.Function(name); f.Arrived != rounds || f.Served != rounds {
			t.Errorf("%s: arrived %d, served %d; want %d each", name, f.Arrived, f.Served, rounds)
		}
	}
	if f := s.Function(round[0]); f.Launches < 2 {
		t.Errorf("%s launched %d instances; the idle pauses should have reclaimed and relaunched", f.Name, f.Launches)
	}
	if reads[0] == 0 || reads[1] == 0 {
		t.Errorf("readers overlapped no load: %d scrapes, %d snapshots", reads[0], reads[1])
	}
}
