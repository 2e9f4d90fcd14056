package main

// gateway.go holds the two wall-clock workloads. Both drive the same
// internal/gateway Server with null execution (SpeedFactor 1e6) through
// its public http.Handler:
//
//	gw_dispatch  one caller goroutine calling ServeHTTP in process: the
//	             gateway's own dispatch path is ~all of the cost
//	gw_http      two keep-alive connections over loopback TCP to an
//	             httptest server: net/http is ~90 % of the cost
//
// Both are closed loops with at most two requests in flight. An
// instance's request channel holds 2*B >= 2 invocations, so offer never
// overflows, nothing scales out past the first instance, and the
// gateway's state — one instance per function — is the same in every
// run. (With emulated execution and real autoscaling the gateway is
// multi-stable; see README.md.)

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/gateway"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/telemetry"
)

const (
	gwFunctions = 32
	// Fixed work per segment, about a quarter of a second each on a
	// 2.1 GHz core.
	gwDispatchSegment = 60_000
	gwDispatchWarmup  = 200_000
	gwHTTPSegment     = 10_000
	gwHTTPWarmup      = 50_000
	gwHTTPConns       = 2
	// Traced segments are shorter: every operation leaves a span.
	gwDispatchTraced = 50_000
	gwHTTPTraced     = 10_000
	// spanHeader carries the client span's id to the server side, so the
	// handler span becomes its child.
	spanHeader = "X-Bench-Span"
)

type gatewayWorkload struct {
	overHTTP bool
	names    []string // function names, index = function
	slos     []string
	order    []int32 // seeded request order: a sequence of permutations of the functions
	next     int     // position in order, carried across segments

	gw   *gateway.Server
	obs  *countingObserver // traced instance only
	ts   *httptest.Server  // gw_http only
	cli  *http.Client
	reqs []*http.Request // gw_dispatch: one reusable request per function
	lat  []int64         // per-operation wall time, reused by every drive

	segOps, tracedOps int // fixed work per measured and per traced segment

	base telemetry.Snapshot // after set-up: report() reads the delta
}

// newGateway generates the inputs from the seed: the functions' SLOs
// (deploy bodies) and the order in which they are invoked. The gateway's
// own options below are constants.
func newGateway(seed int64, overHTTP bool) *gatewayWorkload {
	rng := rand.New(rand.NewSource(seed))
	g := &gatewayWorkload{overHTTP: overHTTP}
	for i := 0; i < gwFunctions; i++ {
		g.names = append(g.names, fmt.Sprintf("f%02d", i))
		g.slos = append(g.slos, fmt.Sprintf("%dms", 100+50*rng.Intn(9)))
	}
	// 64 seeded permutations: every function gets the same share of the
	// requests, in an order that depends on the seed.
	for p := 0; p < 64; p++ {
		for _, i := range rng.Perm(gwFunctions) {
			g.order = append(g.order, int32(i))
		}
	}
	return g
}

func (g *gatewayWorkload) setup(tr *tracer) error {
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)
	cfg := gateway.Config{
		Cluster:     cluster.New(cluster.Options{Servers: 16}),
		SpeedFactor: 1e6, // null execution: emulated time is nanoseconds
		IdleTimeout: time.Hour,
		Seed:        1,
	}
	if tr != nil {
		g.obs = &countingObserver{}
		cfg.Observer = g.obs
	}
	g.gw = gateway.New(cfg)
	var handler http.Handler = g.gw
	if tr != nil {
		handler = tracedHandler(tr, g.gw)
	}
	warmup := gwDispatchWarmup
	if g.overHTTP {
		g.ts = httptest.NewServer(handler)
		g.cli = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: gwHTTPConns,
			DisableCompression:  true,
		}}
		warmup = gwHTTPWarmup
		g.segOps, g.tracedOps = gwHTTPSegment, gwHTTPTraced
	} else {
		for _, name := range g.names {
			g.reqs = append(g.reqs, httptest.NewRequest(http.MethodPost, "/function/"+name, nil))
		}
		g.segOps, g.tracedOps = gwDispatchSegment, gwDispatchTraced
	}
	g.lat = make([]int64, max(g.segOps, warmup))
	for i := range g.names {
		id := tr.begin("gateway.deploy", root, int64(i))
		err := g.deploy(g.names[i], g.slos[i])
		tr.end(id)
		if err != nil {
			return err
		}
	}
	// The warm-up pays every function's cold start (a launch and an
	// emulated model load each) and fills the pools and the HTTP
	// connection cache.
	seg, err := g.drive(nil, g.self(), warmup)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if seg.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", seg.failed, warmup)
	}
	g.base = g.gw.Telemetry().Snapshot()
	return nil
}

// deploy posts one function over the REST surface: in process for
// gw_dispatch, over the wire for gw_http.
func (g *gatewayWorkload) deploy(name, slo string) error {
	body, err := json.Marshal(gateway.DeployRequest{Name: name, Model: "MNIST", SLO: slo})
	if err != nil {
		return fmt.Errorf("deploy %s: %w", name, err)
	}
	code, reply, err := g.control(http.MethodPost, "/system/functions", body)
	if err != nil {
		return fmt.Errorf("deploy %s: %w", name, err)
	}
	if code != http.StatusCreated {
		return fmt.Errorf("deploy %s: status %d: %s", name, code, reply)
	}
	return nil
}

func (g *gatewayWorkload) undeploy(name string) error {
	code, reply, err := g.control(http.MethodDelete, "/system/functions/"+name, nil)
	if err != nil {
		return fmt.Errorf("delete %s: %w", name, err)
	}
	if code != http.StatusNoContent {
		return fmt.Errorf("delete %s: status %d: %s", name, code, reply)
	}
	return nil
}

// control sends one control-surface request the way the workload's
// invocations travel.
func (g *gatewayWorkload) control(method, path string, body []byte) (int, []byte, error) {
	if !g.overHTTP {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		g.gw.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
	req, err := http.NewRequest(method, g.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.cli.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

func (g *gatewayWorkload) segment(tr *tracer) (segment, error) {
	if tr != nil {
		return g.drive(tr, g.self(), g.tracedOps)
	}
	return g.drive(nil, g.self(), g.segOps)
}

// target is where a drive loop sends its invocations: a handler called
// in process, or the base URL of a server.
type target struct {
	handler http.Handler
	url     string
}

// self is the gateway under test.
func (g *gatewayWorkload) self() target {
	if g.overHTTP {
		return target{url: g.ts.URL}
	}
	return target{handler: g.gw}
}

// drive sends n invocations in the seeded order to t and checks every
// reply.
func (g *gatewayWorkload) drive(tr *tracer, t target, n int) (segment, error) {
	root := tr.begin("segment", -1, 0)
	defer tr.end(root)
	lat := g.lat[:n]
	start := g.next
	g.next = (g.next + n) % len(g.order)
	if !g.overHTTP {
		failed := g.driveInProcess(tr, root, t.handler, start, lat)
		return segment{ops: int64(n) - failed, failed: failed, latNs: lat}, nil
	}
	// Two connections: each goroutine takes every second request and
	// writes its own half of lat.
	var wg sync.WaitGroup
	var failed atomic.Int64
	errs := make([]error, gwHTTPConns)
	for c := 0; c < gwHTTPConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f, err := g.driveHTTP(tr, root, t.url, start, lat, c)
			failed.Add(f)
			errs[c] = err
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return segment{}, err
	}
	return segment{ops: int64(n) - failed.Load(), failed: failed.Load(), latNs: lat}, nil
}

// function returns the function the i-th invocation after position start
// of the seeded order goes to.
func (g *gatewayWorkload) function(start, i int) int32 {
	return g.order[(start+i)%len(g.order)]
}

// captureWriter is the in-process ResponseWriter: one reused header
// map, the status, and the body's bytes in a reused buffer for the
// output check.
type captureWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *captureWriter) Header() http.Header { return w.hdr }
func (w *captureWriter) WriteHeader(c int)   { w.code = c }
func (w *captureWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// fullDecodeEvery is how often the in-process loop decodes the whole
// reply with encoding/json; every reply has its status and its function
// field checked. Decoding each one would cost more than the dispatch
// path under test.
const fullDecodeEvery = 256

func (g *gatewayWorkload) driveInProcess(tr *tracer, root int32, h http.Handler, start int, lat []int64) (failed int64) {
	w := &captureWriter{hdr: make(http.Header, 4), body: make([]byte, 0, 256)}
	for i := range lat {
		fn := g.function(start, i)
		w.code, w.body = 0, w.body[:0]
		id := tr.begin("gateway.ServeHTTP", root, int64(i))
		t0 := time.Now()
		h.ServeHTTP(w, g.reqs[fn])
		lat[i] = int64(time.Since(t0))
		tr.end(id)
		if !replyOK(w.code, w.body, g.names[fn], i%fullDecodeEvery == 0) {
			failed++
		}
	}
	return failed
}

func (g *gatewayWorkload) driveHTTP(tr *tracer, root int32, base string, start int, lat []int64, conn int) (failed int64, err error) {
	var buf bytes.Buffer
	for i := conn; i < len(lat); i += gwHTTPConns {
		name := g.names[g.function(start, i)]
		req, err := http.NewRequest(http.MethodPost, base+"/function/"+name, nil)
		if err != nil {
			return failed, fmt.Errorf("invoke %s: %w", name, err)
		}
		id := tr.begin("http.roundtrip", root, int64(i))
		if id >= 0 {
			req.Header.Set(spanHeader, strconv.Itoa(int(id)))
		}
		t0 := time.Now()
		resp, err := g.cli.Do(req)
		if err != nil {
			return failed, fmt.Errorf("invoke %s: %w", name, err)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		lat[i] = int64(time.Since(t0))
		tr.end(id)
		if err != nil {
			return failed, fmt.Errorf("invoke %s: read reply: %w", name, err)
		}
		if !replyOK(resp.StatusCode, buf.Bytes(), name, true) {
			failed++
		}
	}
	return failed, nil
}

// replyOK is the output check of one invocation: status 200 and a body
// naming the invoked function — by its leading field always, and by a
// full decode into gateway.InvokeResponse when asked.
func replyOK(code int, body []byte, name string, decode bool) bool {
	if code != http.StatusOK {
		return false
	}
	if !decode {
		prefix := `{"function":"` + name + `",`
		return len(body) > len(prefix) && string(body[:len(prefix)]) == prefix
	}
	var r gateway.InvokeResponse
	return json.Unmarshal(body, &r) == nil && r.Function == name && r.BatchSize >= 1
}

// tracedHandler wraps the gateway on the server side of the traced
// pass: its span is the child of the client span named in the header.
func tracedHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r) // control-surface request: no client span
			return
		}
		id := tr.begin("gateway.ServeHTTP", int32(parent), 0)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// report derives the policy outcomes from the gateway's own accounting
// over the measured segments (the snapshot delta since set-up): SLO
// attainment in model time, and goodput per allocated resource. It also
// checks the state the closed loop must leave: one live instance per
// function and nothing shed.
func (g *gatewayWorkload) report(w wallClock) (map[string]float64, error) {
	snap := g.gw.Telemetry().Snapshot()
	base := map[string]telemetry.FunctionSnapshot{}
	for _, f := range g.base.Functions {
		base[f.Name] = f
	}
	var served, dropped, violations uint64
	live := 0
	for _, f := range snap.Functions {
		b := base[f.Name]
		served += f.Served - b.Served
		dropped += f.Dropped - b.Dropped
		violations += f.Violations - b.Violations
		live += f.LiveInstances
	}
	if live != gwFunctions {
		return nil, fmt.Errorf("%d live instances for %d functions: the closed loop scaled out", live, gwFunctions)
	}
	if dropped != 0 {
		return nil, fmt.Errorf("gateway dropped %d requests of a closed loop it can always serve", dropped)
	}
	cpu, gpu := g.gw.AllocatedResources()
	res := perf.Resources{CPU: cpu, GPU: gpu}.Weighted()
	attain := float64(served-violations) / float64(served+dropped)
	return map[string]float64{
		"slo_attainment":         attain,
		"goodput_per_resource":   w.throughput * attain / res,
		"gateway.instances_live": float64(live),
		"gateway.resources":      res,
	}, nil
}

func (g *gatewayWorkload) minSegments() int { return wallClockSegments }

func (g *gatewayWorkload) close() {
	if g.ts != nil {
		g.ts.Close()
	}
	if g.cli != nil {
		g.cli.CloseIdleConnections()
	}
	if g.gw != nil {
		g.gw.Close()
	}
}

// countingObserver is the benchmark's runtime.Observer for the traced
// pass. The gateway calls it from request and instance goroutines, so
// every field is atomic.
type countingObserver struct {
	events                 atomic.Int64
	arrived, dropped, shed atomic.Int64
	batches, batched       atomic.Int64
	launched, reclaimed    atomic.Int64
}

var _ runtime.Observer = (*countingObserver)(nil)
var _ runtime.ShedObserver = (*countingObserver)(nil)

func (o *countingObserver) RequestArrived(string, time.Duration) {
	o.events.Add(1)
	o.arrived.Add(1)
}
func (o *countingObserver) RequestEnqueued(string, int, time.Duration) { o.events.Add(1) }
func (o *countingObserver) BatchSubmitted(_ string, _, size int, _ time.Duration) {
	o.events.Add(1)
	o.batches.Add(1)
	o.batched.Add(int64(size))
}
func (o *countingObserver) RequestServed(string, metrics.Sample, time.Duration) { o.events.Add(1) }
func (o *countingObserver) RequestDropped(string, time.Duration) {
	o.events.Add(1)
	o.dropped.Add(1)
}
func (o *countingObserver) RequestShed(string, time.Duration) {
	o.events.Add(1)
	o.shed.Add(1)
}
func (o *countingObserver) InstanceLaunched(string, int, bool, time.Duration, time.Duration) {
	o.events.Add(1)
	o.launched.Add(1)
}
func (o *countingObserver) InstanceReclaimed(string, int, time.Duration) {
	o.events.Add(1)
	o.reclaimed.Add(1)
}
func (o *countingObserver) AllocationChanged(perf.Resources, time.Duration) { o.events.Add(1) }
