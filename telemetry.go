package infless

// telemetry.go is the facade over internal/telemetry: the one observation
// API of the platform. Every externally visible statistic — the Report
// returned by Run, the JSON document written by WriteJSON, the Prometheus
// text exposition, and the per-request trace stream — derives from the
// same telemetry.Collector that subscribes to the engine's runtime
// events, so all views always agree.

import (
	"encoding/json"
	"io"
	"time"

	"github.com/tanklab/infless/internal/telemetry"
)

// TelemetryOptions configure the platform's telemetry collector.
type TelemetryOptions struct {
	// Window is the rolling-window span of the rate and SLO-attainment
	// telemetry (default 1 minute).
	Window time.Duration
	// ResourceSampleEvery adds fixed-period points to the provisioning
	// time series (Figure 14); allocation-change points are always
	// recorded, 0 records only those.
	ResourceSampleEvery time.Duration
	// Trace, when set, receives one JSON line per request lifecycle event
	// (arrived, enqueued, batch, served, dropped, shed, launched, startup,
	// reclaimed, alloc) as the run progresses.
	Trace io.Writer
}

// Telemetry is an observation handle on a platform's collector. Obtain
// it with Platform.Telemetry and read it before or after Run, or during
// Run from an observer on the engine's goroutine (a TelemetryOptions.Trace
// writer is one): the simulated plane feeds the collector without a lock,
// so a read from another goroutine while Run is in progress races with
// it. The gateway's collector (gateway.Server.Telemetry) is the one that
// is read live, under the server's lock.
type Telemetry struct {
	p *Platform
}

// Telemetry returns the platform's observation handle. The collector
// exists from NewPlatform on, so the handle is valid before and after
// Run (before Run it reports zeros).
func (p *Platform) Telemetry() *Telemetry { return &Telemetry{p: p} }

// snapshot cuts the collector at the latest observed plane time.
func (t *Telemetry) snapshot() telemetry.Snapshot { return t.p.col.Snapshot() }

// Report builds a Report from the collector's current state. After Run
// it matches the returned report's telemetry-derived fields; during a
// run it is a mid-flight view (fragmentation and per-configuration
// instance usage are engine state and only appear in Run's report).
func (t *Telemetry) Report() *Report {
	snap := t.snapshot()
	return reportFromSnapshot(string(t.p.opts.System), msDuration(snap.AtMs), snap)
}

// WriteJSON writes the versioned telemetry snapshot document — the same
// schema the gateway serves on GET /system/metrics — to w.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	return writeIndentedJSON(w, t.snapshot())
}

// WritePrometheus writes the Prometheus text exposition (version 0.0.4)
// of the current snapshot to w — the same rendering the gateway serves
// on GET /system/metrics?format=prometheus.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	return telemetry.WritePrometheus(w, t.snapshot())
}

// Options returns the platform's resolved options: the configuration
// actually in effect after zero values were replaced by the documented
// Default* constants.
func (p *Platform) Options() Options { return p.opts }

// writeIndentedJSON is the one JSON-rendering helper of the facade
// (Telemetry.WriteJSON and Report.WriteJSON both go through it).
func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
