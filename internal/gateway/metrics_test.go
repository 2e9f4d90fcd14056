package gateway

// metrics_test.go pins the redesigned /system/metrics contract: the JSON
// document, the Prometheus exposition and the in-process collector are
// three renderings of the same telemetry.Collector state, so the values
// a scraper sees must equal the values an embedding caller reads from
// Server.Telemetry(). Also covers the normalized REST error surface.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
