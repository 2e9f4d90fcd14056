package gateway

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestClientRoundTrip(t *testing.T) {
	gw := New(Config{SpeedFactor: 500, IdleTimeout: 5 * time.Second, Seed: 1})
	ts := httptest.NewServer(gw)
	defer ts.Close()
	defer gw.Close()

	c := NewClient(ts.URL + "/")

	if err := c.Deploy(DeployRequest{Name: "f", Model: "MobileNet", SLO: "100ms"}); err != nil {
		t.Fatal(err)
	}
	names, err := c.DeployTemplate("functions:\n  g:\n    model: MNIST\n    slo: 200ms\n")
	if err != nil || len(names) != 1 || names[0] != "g" {
		t.Fatalf("template: %v %v", names, err)
	}

	list, err := c.List()
	if err != nil || len(list) != 2 {
		t.Fatalf("list: %v %v", list, err)
	}

	inv, err := c.Invoke("f")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Function != "f" || inv.LatencyMs <= 0 {
		t.Fatalf("invoke: %+v", inv)
	}

	snap, err := c.Metrics()
	if err != nil || len(snap.Functions) != 2 {
		t.Fatalf("metrics: %v %v", snap, err)
	}
	for _, m := range snap.Functions {
		if m.Name == "f" && m.Served != 1 {
			t.Fatalf("served = %d", m.Served)
		}
	}

	if err := c.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("f"); err == nil {
		t.Fatal("invoking deleted function should fail")
	}
	if err := c.Delete("f"); err == nil {
		t.Fatal("double delete should fail")
	}

	// Deploy accepts any non-empty name, so invoke and delete must reach
	// names that need escaping in a URL path.
	for _, name := range []string{"a/b", "what?", "frag#ment", "100%", "two words"} {
		if err := c.Deploy(DeployRequest{Name: name, Model: "MNIST", SLO: "200ms"}); err != nil {
			t.Fatalf("deploy %q: %v", name, err)
		}
		if inv, err := c.Invoke(name); err != nil || inv.Function != name {
			t.Fatalf("invoke %q: %+v %v", name, inv, err)
		}
		if err := c.Delete(name); err != nil {
			t.Fatalf("delete %q: %v", name, err)
		}
		if _, err := c.Invoke(name); err == nil {
			t.Fatalf("invoking deleted %q should fail", name)
		}
	}
}

func TestClientErrorsSurfaceAPIMessage(t *testing.T) {
	gw := New(Config{SpeedFactor: 500, Seed: 1})
	ts := httptest.NewServer(gw)
	defer ts.Close()
	defer gw.Close()
	c := NewClient(ts.URL)
	err := c.Deploy(DeployRequest{Name: "x", Model: "NoSuchNet", SLO: "1s"})
	if err == nil {
		t.Fatal("bad model accepted")
	}
	if got := err.Error(); got == "" || got == "gateway: unexpected status 400" {
		t.Fatalf("error lacks API message: %q", got)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens here
	if _, err := c.List(); err == nil {
		t.Fatal("dead server should error")
	}
	if err := c.Deploy(DeployRequest{Name: "f", Model: "MNIST", SLO: "1s"}); err == nil {
		t.Fatal("dead server should error")
	}
}

var errBodyClose = errors.New("body close failed")

// closeFailBody is a response body whose Close fails with errBodyClose.
type closeFailBody struct{ io.Reader }

func (closeFailBody) Close() error { return errBodyClose }

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientReturnsBodyCloseError: Deploy and Delete succeed by closing
// the response body, so a failed close is their result, not dropped.
func TestClientReturnsBodyCloseError(t *testing.T) {
	c := &Client{BaseURL: "http://gateway", HTTP: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		status := http.StatusCreated
		if r.Method == http.MethodDelete {
			status = http.StatusNoContent
		}
		return &http.Response{StatusCode: status, Body: closeFailBody{http.NoBody}, Request: r}, nil
	})}}
	if err := c.Deploy(DeployRequest{Name: "f", Model: "MNIST", SLO: "1s"}); !errors.Is(err, errBodyClose) {
		t.Errorf("Deploy: got %v, want the body's close error", err)
	}
	if err := c.Delete("f"); !errors.Is(err, errBodyClose) {
		t.Errorf("Delete: got %v, want the body's close error", err)
	}
}
