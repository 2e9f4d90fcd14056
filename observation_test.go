package infless_test

// observation_test.go pins the redesigned observation API at the facade:
// Report documents round-trip through JSON unchanged, the live Telemetry
// handle agrees with the Report a run returns, traces stream JSONL, and
// invalid configuration fails with FieldErrors naming the offending
// field.

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	infless "github.com/tanklab/infless"
	"github.com/tanklab/infless/internal/telemetry"
)

func runSmallPlatform(t *testing.T, opts infless.Options) *infless.Report {
	t.Helper()
	p, err := infless.NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Deploy(infless.FunctionConfig{
		Name: "f", Model: "MNIST", SLO: 200 * time.Millisecond,
		Traffic: infless.Traffic{RPS: 50},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := runSmallPlatform(t, infless.Options{
		Telemetry: infless.TelemetryOptions{ResourceSampleEvery: 10 * time.Second},
	})
	if rep.Served == 0 || len(rep.Functions) != 1 {
		t.Fatalf("degenerate report: %+v", rep)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"system"`, `"functions"`, `"sloViolationRate"`,
		`"p99Latency"`, `"provisioning"`, `"batchUsage"`} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("JSON document lacks %s", key)
		}
	}

	var back infless.Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Errorf("report did not round-trip:\n got %+v\nwant %+v", back, *rep)
	}
}

func TestTelemetryHandleMatchesReport(t *testing.T) {
	p, err := infless.NewPlatform(infless.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tel := p.Telemetry() // valid before Run
	if err := p.Deploy(infless.FunctionConfig{
		Name: "f", Model: "MNIST", SLO: 200 * time.Millisecond,
		Traffic: infless.Traffic{RPS: 50},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	live := tel.Report()
	if live.Served != rep.Served || live.Dropped != rep.Dropped {
		t.Errorf("telemetry report disagrees with run report: %d/%d vs %d/%d",
			live.Served, live.Dropped, rep.Served, rep.Dropped)
	}
	if len(live.Functions) != 1 || live.Functions[0].P99Latency != rep.Functions[0].P99Latency {
		t.Errorf("per-function stats diverge: %+v vs %+v", live.Functions, rep.Functions)
	}

	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot document is not JSON: %v", err)
	}
	if snap["schemaVersion"] != float64(telemetry.SchemaVersion) {
		t.Errorf("schemaVersion = %v", snap["schemaVersion"])
	}

	buf.Reset()
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `infless_requests_total{function="f",outcome="served"}`) {
		t.Errorf("prometheus exposition missing served counter:\n%s", buf.String())
	}
}

func TestTraceOption(t *testing.T) {
	// A tiered run also traces every cold launch's startup breakdown.
	for _, tiered := range []bool{false, true} {
		var trace bytes.Buffer
		rep := runSmallPlatform(t, infless.Options{
			Telemetry: infless.TelemetryOptions{Trace: &trace},
			Storage:   infless.StorageOptions{Enabled: tiered},
		})
		lines := strings.Split(strings.TrimSpace(trace.String()), "\n")
		if len(lines) < int(rep.Served) {
			t.Fatalf("trace has %d lines for %d served requests", len(lines), rep.Served)
		}
		kinds := map[string]int{}
		for _, ln := range lines {
			var ev telemetry.TraceEvent
			if err := json.Unmarshal([]byte(ln), &ev); err != nil {
				t.Fatalf("bad JSONL line %q: %v", ln, err)
			}
			kinds[ev.Event]++
			if ev.Event == "startup" && (ev.Tier == "" || ev.BootMs <= 0) {
				t.Errorf("startup line without its breakdown: %s", ln)
			}
		}
		for _, want := range []string{"arrived", "batch", "served", "launched"} {
			if kinds[want] == 0 {
				t.Errorf("trace has no %q events (kinds: %v)", want, kinds)
			}
		}
		if (kinds["startup"] > 0) != tiered {
			t.Errorf("tiered=%v: trace has %d startup lines (kinds: %v)", tiered, kinds["startup"], kinds)
		}
	}
}

func TestOptionValidationNamesField(t *testing.T) {
	cases := []struct {
		opts  infless.Options
		field string
	}{
		{infless.Options{System: "no-such-system"}, "Options.System"},
		{infless.Options{Servers: -1}, "Options.Servers"},
		{infless.Options{LSTHGamma: 1.5}, "Options.LSTHGamma"},
		{infless.Options{Telemetry: infless.TelemetryOptions{Window: -time.Second}}, "Options.Telemetry.Window"},
	}
	for _, c := range cases {
		_, err := infless.NewPlatform(c.opts)
		if err == nil {
			t.Errorf("%+v: accepted", c.opts)
			continue
		}
		var fe *infless.FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%+v: error %v is not a FieldError", c.opts, err)
			continue
		}
		if fe.Field != c.field {
			t.Errorf("error names %q, want %q", fe.Field, c.field)
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("message %q does not name the field", err.Error())
		}
	}
}

func TestDeployValidationNamesField(t *testing.T) {
	p, err := infless.NewPlatform(infless.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg   infless.FunctionConfig
		field string
	}{
		{infless.FunctionConfig{Model: "MNIST", SLO: time.Second, Traffic: infless.Traffic{RPS: 1}},
			"FunctionConfig.Name"},
		{infless.FunctionConfig{Name: "f", Model: "NoSuchNet", SLO: time.Second, Traffic: infless.Traffic{RPS: 1}},
			"FunctionConfig.Model"},
		{infless.FunctionConfig{Name: "f", Model: "MNIST", Traffic: infless.Traffic{RPS: 1}},
			"FunctionConfig.SLO"},
		{infless.FunctionConfig{Name: "f", Model: "MNIST", SLO: time.Second},
			"Traffic.RPS"},
		{infless.FunctionConfig{Name: "f", Model: "MNIST", SLO: time.Second,
			Traffic: infless.Traffic{RPS: 1, Pattern: "diurnal"}}, "Traffic.Pattern"},
	}
	for _, c := range cases {
		err := p.Deploy(c.cfg)
		if err == nil {
			t.Errorf("%+v: accepted", c.cfg)
			continue
		}
		var fe *infless.FieldError
		if !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("deploy error %q: want FieldError on %q", err, c.field)
		}
	}
}

func TestResolvedOptionsVisible(t *testing.T) {
	p, err := infless.NewPlatform(infless.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Options()
	if got.System != infless.SystemINFless || got.Servers != infless.DefaultServers ||
		got.Seed != infless.DefaultSeed || got.LSTHGamma != infless.DefaultLSTHGamma ||
		got.Telemetry.Window != infless.DefaultTelemetryWindow {
		t.Errorf("resolved options = %+v", got)
	}
}
