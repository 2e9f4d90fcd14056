package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/telemetry"
)

// testServer runs the gateway 500x faster than real time so cold starts
// and batch windows complete in milliseconds.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	gw := New(Config{SpeedFactor: 500, IdleTimeout: 2 * time.Second, Seed: 1})
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
	})
	return gw, ts
}

func deployJSON(t *testing.T, ts *httptest.Server, name, model, slo string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(DeployRequest{Name: name, Model: model, SLO: slo})
	resp, err := http.Post(ts.URL+"/system/functions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestDeployInvokeLifecycle(t *testing.T) {
	_, ts := testServer(t)
	if resp := deployJSON(t, ts, "classify", "MobileNet", "100ms"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}

	// List shows the function.
	resp, err := http.Get(ts.URL + "/system/functions")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&list)
	if len(list) != 1 || list[0]["name"] != "classify" {
		t.Fatalf("list = %+v", list)
	}

	// Invoke a few times.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/function/classify", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke status = %d", resp.StatusCode)
		}
		var inv InvokeResponse
		if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
			t.Fatal(err)
		}
		if inv.Function != "classify" || inv.LatencyMs <= 0 || inv.BatchSize < 1 {
			t.Fatalf("invoke response = %+v", inv)
		}
		if i == 0 && !inv.ColdStart {
			t.Error("first invocation should be a cold start")
		}
	}

	// Metrics reflect the invocations.
	resp, err = http.Get(ts.URL + "/system/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics content type = %q", ct)
	}
	var snap telemetry.Snapshot
	_ = json.NewDecoder(resp.Body).Decode(&snap)
	if len(snap.Functions) != 1 || snap.Functions[0].Served != 5 || snap.Functions[0].LiveInstances < 1 {
		t.Fatalf("metrics = %+v", snap)
	}

	// Undeploy.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/system/functions/classify", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %d", err, resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/function/classify", "application/json", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("invoke after delete = %d", resp.StatusCode)
	}
}

func TestDeployTemplateYAML(t *testing.T) {
	_, ts := testServer(t)
	tpl := `functions:
  vision:
    model: MobileNet
    slo: 100ms
  text:
    model: TextCNN-69
    slo: 80ms
`
	resp, err := http.Post(ts.URL+"/system/functions", "text/yaml", strings.NewReader(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("template deploy status = %d", resp.StatusCode)
	}
	var out map[string][]string
	_ = json.NewDecoder(resp.Body).Decode(&out)
	if len(out["deployed"]) != 2 {
		t.Fatalf("deployed = %+v", out)
	}
}

func TestDeployErrors(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name, model, slo string
	}{
		{"", "MNIST", "1s"},
		{"f", "NoSuchNet", "1s"},
		{"f", "MNIST", "not-a-duration"},
	}
	for _, c := range cases {
		if resp := deployJSON(t, ts, c.name, c.model, c.slo); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", c, resp.StatusCode)
		}
	}
	// Duplicate deploys conflict with 409.
	deployJSON(t, ts, "dup", "MNIST", "1s")
	if resp := deployJSON(t, ts, "dup", "MNIST", "1s"); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate deploy status = %d", resp.StatusCode)
	}
	// Infeasible SLO rejected at deploy time.
	if resp := deployJSON(t, ts, "impossible", "Bert-v1", "1ms"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("infeasible SLO status = %d", resp.StatusCode)
	}
	// The media type decides, not the header's spelling: parameters such
	// as the charset most clients append are ignored, other types are 415.
	for _, c := range []struct {
		contentType, body string
		want              int
	}{
		{"application/json; charset=utf-8", `{"name":"cj","model":"MNIST","slo":"1s"}`, http.StatusCreated},
		{"text/yaml; charset=utf-8", "functions:\n  cy:\n    model: MNIST\n    slo: 1s\n", http.StatusCreated},
		{"application/xml", "<f/>", http.StatusUnsupportedMediaType},
		{"text/plain", `{"name":"cp","model":"MNIST","slo":"1s"}`, http.StatusUnsupportedMediaType},
	} {
		resp, err := http.Post(ts.URL+"/system/functions", c.contentType, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("deploy as %q: status %d, want %d", c.contentType, resp.StatusCode, c.want)
		}
	}
}

// TestConcurrentInvocationsBatch: a burst of simultaneous invocations is
// served in batches. On the fake clock the burst really is simultaneous
// and the outcome is exact (it was a wall-clock flake at 20x).
func TestConcurrentInvocationsBatch(t *testing.T) {
	m := newManual(t, Config{IdleTimeout: time.Minute, Seed: 1})
	m.mustDeploy("resnet", "ResNet-50", 200*time.Millisecond)
	m.invoke("resnet") // absorb the first cold start
	m.drain()

	const n = 48
	var replies []<-chan reply
	for i := 0; i < n; i++ {
		replies = append(replies, m.invoke("resnet"))
	}
	m.drain()
	batched := 0
	for i, ch := range replies {
		r := <-ch
		if r.err != nil {
			t.Fatalf("invocation %d: %v", i, r.err)
		}
		if r.res.BatchSize > 1 {
			batched++
		}
	}
	// The warm batch-of-1 instance keeps serving while the scale-out
	// (sized by the burst) warms up; what is left then runs batched.
	if batched == 0 {
		t.Errorf("no invocation was batched despite %d simultaneous requests", n)
	}
}

func TestIdleReclaimReleasesResources(t *testing.T) {
	gw := New(Config{SpeedFactor: 500, IdleTimeout: 100 * time.Millisecond, Seed: 1})
	ts := httptest.NewServer(gw)
	defer ts.Close()
	defer gw.Close()
	if resp := deployJSON(t, ts, "f", "MNIST", "500ms"); resp.StatusCode != http.StatusCreated {
		t.Fatal("deploy failed")
	}
	if resp, _ := http.Post(ts.URL+"/function/f", "application/json", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("invoke failed")
	}
	// Wait past the idle timeout; the instance must be reclaimed.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cpu, gpu := gw.AllocatedResources(); cpu == 0 && gpu == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	cpu, gpu := gw.AllocatedResources()
	t.Fatalf("resources still allocated after idle timeout: cpu=%d gpu=%d", cpu, gpu)
}

// TestInvokeRouteMatchesMux: ServeHTTP answers every request the way the
// mux alone does, whether it routes the request itself or not. Twin
// servers, each with f deployed, take the same requests in the same
// order, one through ServeHTTP and one through its mux; status, the
// headers a client acts on and the body must agree (the latency aside).
// routed pins which requests skip the mux, so a route check that gave
// up on everything, or took an escaped path, would show here too.
func TestInvokeRouteMatchesMux(t *testing.T) {
	twin := func() *Server {
		gw := New(Config{SpeedFactor: 1e6, IdleTimeout: time.Hour, Seed: 1})
		t.Cleanup(gw.Close)
		if err := gw.deploy(core.RegistryEntry{Name: "f", ModelName: "MNIST", SLO: 200 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		return gw
	}
	route, mux := twin(), twin()
	for _, c := range []struct {
		method, target string
		routed         bool
	}{
		{"POST", "/function/f", true},
		{"POST", "/function/ghost", true}, // 404
		{"GET", "/function/f", false},     // 405 + Allow
		{"HEAD", "/function/f", false},
		{"POST", "/function/", false},
		{"POST", "/function/a/b", false},
		{"POST", "/function/./f", false}, // redirects
		{"POST", "/function/..", false},
		{"POST", "/function/.", false},
		{"POST", "/function/a%2Fb", false}, // the mux invokes "a/b"
		{"POST", "/function/%66", false},   // ... and "f"
		{"POST", "/function/a%20b", true},  // no RawPath: "a b" is its own escaping
		{"POST", "/function/f/", false},
		{"POST", "/function//f", false},
		{"POST", "/function/f?x=1", true},
	} {
		name := c.method + " " + c.target
		if _, ok := canonicalInvoke(httptest.NewRequest(c.method, c.target, nil)); ok != c.routed {
			t.Errorf("%s: routed = %v, want %v", name, ok, c.routed)
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		route.ServeHTTP(got, httptest.NewRequest(c.method, c.target, nil))
		mux.mux.ServeHTTP(want, httptest.NewRequest(c.method, c.target, nil))
		if got.Code != want.Code {
			t.Errorf("%s: status %d, the mux's %d", name, got.Code, want.Code)
		}
		for _, h := range []string{"Content-Type", "Allow", "Location", "Retry-After"} {
			if g, w := got.Header().Values(h), want.Header().Values(h); !slices.Equal(g, w) {
				t.Errorf("%s: %s %q, the mux's %q", name, h, g, w)
			}
		}
		gotBody, wantBody := got.Body.Bytes(), want.Body.Bytes()
		if got.Code == http.StatusOK {
			var g, w InvokeResponse
			if json.Unmarshal(gotBody, &g) != nil || json.Unmarshal(wantBody, &w) != nil {
				t.Fatalf("%s: undecodable replies %q, %q", name, gotBody, wantBody)
			}
			g.LatencyMs, w.LatencyMs = 0, 0
			if g != w {
				t.Errorf("%s: reply %+v, the mux's %+v", name, g, w)
			}
		} else if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: body %q, the mux's %q", name, gotBody, wantBody)
		}
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	_, ts := testServer(t)
	resp, _ := http.Post(ts.URL+"/function/ghost", "application/json", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
