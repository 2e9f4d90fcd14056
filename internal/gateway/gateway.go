// Package gateway runs INFless as a real wall-clock HTTP service: the
// faas-gateway role of the paper's implementation (Section 4). Functions
// deploy over REST (JSON or an INFless template), invocations batch in
// real time through the same Eq. 1 admission math, instances are sized
// and placed by the same Algorithm 1 scheduler against a virtual cluster
// inventory, and execution is emulated by sleeping for the cost model's
// ground-truth batch time.
//
// Endpoints:
//
//	POST   /system/functions        deploy {"name","model","slo","maxBatch"} or a text/yaml template
//	GET    /system/functions        list deployed functions
//	DELETE /system/functions/{name} undeploy
//	POST   /function/{name}         invoke (blocks until the batch executes)
//	GET    /system/metrics          telemetry snapshot (?format=json | prometheus)
//
// The REST surface is normalized: every response carries a Content-Type,
// every error is `{"error": "..."}` JSON with a meaningful status code
// (404 unknown function, 409 duplicate deploy, 400 bad request, 503
// saturated). /system/metrics serves the versioned telemetry.Snapshot
// JSON document by default and the Prometheus text exposition with
// ?format=prometheus — both rendered from the same telemetry.Collector
// that observes the gateway's runtime event stream.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/cow"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/pool"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/telemetry"
)

// Config tunes the gateway.
type Config struct {
	// Cluster is the resource inventory (default: the 8-server testbed).
	Cluster *cluster.Cluster
	// Predictor estimates execution times (default: fresh COP predictor).
	Predictor scheduler.Predictor
	// SpeedFactor divides emulated execution times — useful for demos and
	// tests (e.g. 100 makes a 50ms inference take 0.5ms of wall time).
	// Default 1 (real time).
	SpeedFactor float64
	// IdleTimeout reclaims instances with no traffic (default 60s).
	IdleTimeout time.Duration
	// RateWindow is the sliding window (in model time) of the shared
	// arrival-rate estimator, matching the simulator's Config.RateWindow
	// (default 10s).
	RateWindow time.Duration
	// Observer, when set, receives every lifecycle event (arrivals, batch
	// submissions, launches, reclaims) alongside the built-in telemetry
	// collector. Hooks are invoked from request and instance goroutines
	// concurrently; implementations must be safe for concurrent use.
	// Event timestamps are plane time: model-time offsets from the
	// server's start, i.e. wall elapsed times SpeedFactor.
	Observer runtime.Observer
	// Collector, when set, is the telemetry collector the gateway feeds
	// (e.g. one shared with a simulator run for cross-plane comparison).
	// When nil the gateway creates its own; Server.Telemetry returns it.
	Collector *telemetry.Collector
	// Seed drives execution-time noise.
	Seed int64
	// MaxQueue bounds how many invocations of one function may be in
	// flight inside the gateway (queued for dispatch or executing) before
	// admission control sheds new arrivals with 429 + Retry-After instead
	// of queueing unboundedly. Default 512; negative disables the bound.
	MaxQueue int
	// Storage, when active, enables multi-tier artifact loading: cold
	// starts are priced by the tier holding the checkpoint on the chosen
	// server (promoting it up the hierarchy) instead of the scalar
	// formula, and the startup breakdown surfaces in telemetry
	// (infless_cold_start_tier_seconds). Nil keeps the legacy behavior.
	Storage *artifact.Config
}

// Server is the INFless HTTP gateway. Create with New, mount as an
// http.Handler, and Close when done.
type Server struct {
	mux   *http.ServeMux
	cfg   Config
	pred  scheduler.Predictor
	reg   *core.Registry
	epoch time.Time
	obs   runtime.Observers
	col   *telemetry.Collector

	// tbl is the copy-on-write function table, read once per request:
	// handleInvoke resolves names against its current snapshot with no
	// lock, deploy/undeploy publish new snapshots.
	tbl cow.Map[*function]

	// deployMu makes each deploy, undeploy and Close one step against
	// tbl and reg together: two racing deploys of one name can never both
	// pass the duplicate check (the loser used to return 409 after
	// registering, leaking its registry entry). It is taken outside the
	// containers' own writer locks and never on the invoke path.
	deployMu sync.Mutex

	// rates holds every function's arrival-rate estimator, striped by
	// function name so concurrent invocations of different functions
	// never meet on one lock, plus the lock-free plane-wide arrival ring
	// behind the infless_plane_rate_rps telemetry gauge. Stripe locks nest
	// strictly inside f.mu (noteArrival, demand); nothing acquires f.mu
	// while holding a stripe.
	rates *runtime.RateStripes

	// clMu serializes access to cfg.Cluster: the inventory type itself is
	// single-threaded (the simulator owns it exclusively), but gateway
	// instances allocate and release concurrently.
	clMu sync.Mutex

	// instWG counts live instance.loop goroutines: scaleOut Adds before
	// spawning, the loop Dones on exit, and Close waits (bounded) so
	// teardown provably joins every loop instead of abandoning them.
	instWG sync.WaitGroup
}

// AllocatedResources returns a concurrency-safe snapshot of the cluster's
// current allocation (exposed for operational introspection and tests).
func (s *Server) AllocatedResources() (cpu, gpu int) {
	s.clMu.Lock()
	defer s.clMu.Unlock()
	r := s.cfg.Cluster.TotalAllocated()
	return r.CPU, r.GPU
}

// New creates a gateway.
func New(cfg Config) *Server {
	if cfg.Cluster == nil {
		cfg.Cluster = cluster.Testbed()
	}
	if cfg.Predictor == nil {
		cfg.Predictor = scheduler.NewPredictorCache(
			profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions())))
	}
	if cfg.SpeedFactor <= 0 {
		cfg.SpeedFactor = 1
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.RateWindow <= 0 {
		cfg.RateWindow = 10 * time.Second
	}
	if cfg.Collector == nil {
		cfg.Collector = telemetry.New(telemetry.Options{Window: time.Minute})
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 512
	}
	s := &Server{
		mux:   http.NewServeMux(),
		cfg:   cfg,
		pred:  cfg.Predictor,
		reg:   core.NewRegistry(),
		epoch: time.Now(),
		col:   cfg.Collector,
		rates: runtime.NewRateStripes(cfg.RateWindow),
	}
	s.obs = runtime.Observers{s.col}
	if cfg.Observer != nil {
		s.obs = append(s.obs, cfg.Observer)
	}
	if cfg.Storage.Active() {
		cfg.Cluster.EnableArtifacts(cfg.Storage.CacheMB)
	}
	s.mux.HandleFunc("POST /system/functions", s.handleDeploy)
	s.mux.HandleFunc("GET /system/functions", s.handleList)
	s.mux.HandleFunc("DELETE /system/functions/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /function/{name}", s.handleInvoke)
	s.mux.HandleFunc("GET /system/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// planeNow converts the wall clock to plane time — the model-time offset
// since the server started, compressed by SpeedFactor. Both data planes
// feed these offsets to the shared runtime policies, so a rate window of
// 10s always means ten seconds of *model* time regardless of speed.
func (s *Server) planeNow() time.Duration {
	return time.Duration(float64(time.Since(s.epoch)) * s.cfg.SpeedFactor)
}

// Telemetry returns the gateway's collector: the single source behind
// /system/metrics in both formats, live-readable by embedding callers.
func (s *Server) Telemetry() *telemetry.Collector { return s.col }

// PlaneRate returns the gateway-wide arrival rate (RPS of model time)
// over the rate window, aggregated lock-free across all functions.
func (s *Server) PlaneRate() float64 { return s.rates.PlaneRate(s.planeNow()) }

// PlaneNow exposes the gateway's current plane time (tests and callers
// snapshotting the collector mid-run pass it to SnapshotAt).
func (s *Server) PlaneNow() time.Duration { return s.planeNow() }

// closeJoinTimeout bounds how long Close waits for instance loops to
// drain in-flight batches before giving up the join.
const closeJoinTimeout = 5 * time.Second

// Close stops all function instances, releases their resources, and
// waits (bounded) for every instance.loop goroutine to exit. The join
// is what makes teardown provable: without it a loop mid-batch outlives
// Close invisibly, which is exactly the leak the goroutinelife analyzer
// and the NumGoroutine harness guard against.
func (s *Server) Close() {
	var fns []*function
	s.deployMu.Lock()
	s.tbl.Update(func(next map[string]*function) {
		for _, f := range next {
			fns = append(fns, f)
		}
		clear(next)
	})
	s.deployMu.Unlock()
	for _, f := range fns {
		f.shutdown()
	}
	done := make(chan struct{})
	go func() {
		s.instWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(closeJoinTimeout):
		// A loop stuck past the deadline is a bug elsewhere; Close
		// still returns so shutdown cannot deadlock the caller.
	}
}

// DeployRequest is the JSON deployment body.
type DeployRequest struct {
	Name     string `json:"name"`
	Model    string `json:"model"`
	SLO      string `json:"slo"` // Go duration, e.g. "200ms"
	MaxBatch int    `json:"maxBatch,omitempty"`
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	var entries []core.RegistryEntry
	switch ct := r.Header.Get("Content-Type"); {
	case ct == "application/json" || ct == "":
		var req DeployRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad json: %v", err)
			return
		}
		slo, err := time.ParseDuration(req.SLO)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad slo: %v", err)
			return
		}
		entries = append(entries, core.RegistryEntry{
			Name: req.Name, ModelName: req.Model, SLO: slo, MaxBatchSize: req.MaxBatch,
		})
	case ct == "text/yaml" || ct == "application/x-yaml":
		buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				httpError(w, http.StatusRequestEntityTooLarge,
					"template too large (limit %d bytes)", mbe.Limit)
				return
			}
			httpError(w, http.StatusBadRequest, "read template: %v", err)
			return
		}
		fns, err := core.ParseTemplate(string(buf))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad template: %v", err)
			return
		}
		for _, t := range fns {
			entries = append(entries, core.RegistryEntry{
				Name: t.Name, ModelName: t.ModelName, SLO: t.SLO,
				MaxBatchSize: t.MaxBatchSize, Image: t.Image, Handler: t.Handler,
			})
		}
	default:
		httpError(w, http.StatusUnsupportedMediaType, "use application/json or text/yaml")
		return
	}

	var deployed []string
	for _, e := range entries {
		if err := s.deploy(e); err != nil {
			code := http.StatusBadRequest
			var se *statusError
			if errors.As(err, &se) {
				code = se.code
			}
			httpError(w, code, "%v", err)
			return
		}
		deployed = append(deployed, e.Name)
	}
	writeJSON(w, http.StatusCreated, map[string]any{"deployed": deployed})
}

// statusError carries the HTTP status a gateway-internal failure maps to
// (409 duplicate deploy, etc.); handlers unwrap it with errors.As.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func (s *Server) deploy(e core.RegistryEntry) error {
	// The whole deploy sequence — duplicate check, registry write, plan
	// construction, table publish — is one deployMu critical section.
	// Deploys are human-rate; holding it across plan construction never
	// touches the lock-free invoke path.
	s.deployMu.Lock()
	if _, exists := s.tbl.Get(e.Name); exists {
		s.deployMu.Unlock()
		return &statusError{http.StatusConflict,
			fmt.Sprintf("gateway: function %s already deployed", e.Name)}
	}
	if err := s.reg.Register(e); err != nil {
		s.deployMu.Unlock()
		return err
	}
	m := model.MustGet(e.ModelName)
	plan := scheduler.BuildPlan(scheduler.Function{Name: e.Name, Model: m, SLO: e.SLO},
		s.pred, scheduler.Options{MaxInstancesPerCall: 1})
	if !plan.Feasible() {
		s.reg.Delete(e.Name)
		s.deployMu.Unlock()
		return fmt.Errorf("gateway: no configuration of %s meets %v", e.ModelName, e.SLO)
	}
	f := &function{
		srv:     s,
		model:   m,
		plan:    plan,
		slo:     e.SLO,
		batch:   runtime.BatchPolicy{SLO: e.SLO},
		maxWait: int64(s.cfg.MaxQueue),
	}
	s.tbl.Update(func(next map[string]*function) { next[e.Name] = f })
	s.deployMu.Unlock()
	if s.cfg.Storage.Active() {
		// Seed the checkpoint on every server's SSD — the legacy formula's
		// assumption — so the first tiered launch prices like the scalar
		// path and later launches benefit from DRAM promotion.
		s.clMu.Lock()
		s.cfg.Cluster.SeedArtifact(e.Name, m.MemoryMB, artifact.TierSSD)
		s.clMu.Unlock()
	}
	// Collector entry points take their own locks and must never run
	// under deployMu (lockedcallback). An invocation racing this Register
	// auto-registers the name with no SLO and the Register below then
	// sets it, so at worst a request in that window skips violation
	// accounting.
	s.col.Register(e.Name, e.SLO)
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.deployMu.Lock()
	f, ok := s.tbl.Get(name)
	if ok {
		// Registry and table stay consistent: both writes happen in one
		// deployMu critical section, like deploy's.
		s.tbl.Update(func(next map[string]*function) { delete(next, name) })
		s.reg.Delete(name)
	}
	s.deployMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown function %s", name)
		return
	}
	f.shutdown()
	w.WriteHeader(http.StatusNoContent)
}

// InvokeResponse is the JSON body returned for each invocation.
type InvokeResponse struct {
	Function  string  `json:"function"`
	LatencyMs float64 `json:"latencyMs"`
	BatchSize int     `json:"batchSize"`
	ColdStart bool    `json:"coldStart"`
	Instance  int     `json:"instance"`
}

// handleInvoke is the hot path: one lock-free table load, dispatch, and
// a pooled response encode. Steady state allocates nothing in the
// gateway's own code (BenchmarkHandleInvoke gates this at 0 allocs/op,
// and the hotalloc analyzer names any allocating line reachable from
// here); every error answer is a preformatted body, and saturation maps
// to 429 + Retry-After so clients can tell "back off" from "broken".
//
//lint:hotpath
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	f, ok := s.tbl.Get(r.PathValue("name"))
	if !ok {
		writeStatic(w, http.StatusNotFound, bodyUnknownFunction)
		return
	}
	res, err := f.invoke(r.Context())
	switch err {
	case nil:
		writeInvokeResponse(w, &res)
	case errShedQueueFull:
		writeShed(w, bodyShedQueueFull)
	case errShedNoCapacity:
		writeShed(w, bodyShedNoCapacity)
	case errShedSaturated:
		writeShed(w, bodyShedSaturated)
	case errUndeployed:
		// The function was undeployed between lookup and dispatch: the
		// same answer a post-delete lookup gets.
		writeStatic(w, http.StatusNotFound, bodyUnknownFunction)
	case errInvokeTimeout:
		writeStatic(w, http.StatusServiceUnavailable, bodyTimeout)
	default:
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

// handleMetrics renders the collector's current snapshot. The default
// (and ?format=json) response is the versioned telemetry.Snapshot
// document; ?format=prometheus serves the text exposition instead. Both
// views come from the same SnapshotAt call, so they always agree.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.col.SnapshotAt(s.planeNow())
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, snap)
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = telemetry.WritePrometheus(w, snap)
		// The plane-wide arrival gauge comes from the striped rate map's
		// atomic ring, not the collector — append it to the exposition.
		fmt.Fprintf(w, "# HELP infless_plane_rate_rps Plane-wide arrival rate over the rate window.\n")
		fmt.Fprintf(w, "# TYPE infless_plane_rate_rps gauge\n")
		fmt.Fprintf(w, "infless_plane_rate_rps %g\n", s.PlaneRate())
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (use json or prometheus)", format)
	}
}

// writeJSON answers with a JSON body and the right Content-Type. Every
// non-Prometheus response on the REST surface goes through here, the
// pooled invoke encoders below, or httpError, so no handler can forget
// the header. This reflective encoder serves the control surface only;
// the invoke path uses writeInvokeResponse/writeStatic.
func writeJSON(w http.ResponseWriter, code int, v any) {
	setContentTypeJSON(w.Header())
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError is the generic error answer for control-surface handlers
// and the invoke path's can't-happen default arm; it allocates freely
// (fmt, reflective encode), hence the coldpath boundary.
//
//lint:coldpath
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Shared header-value slices: h[k] = shared avoids http.Header.Set's
// per-call []string{v} allocation on the hot path. The slices are
// package-level constants in spirit — never mutated.
var (
	headerJSON       = []string{"application/json"}
	headerRetryAfter = []string{"1"}
)

func setContentTypeJSON(h http.Header) { h["Content-Type"] = headerJSON }

// Preformatted invoke-path bodies: the hot path never fmt.Sprintfs an
// error. Tests assert the `{"error": ...}` shape and status code, not
// exact prose, so the bodies stay generic (the function name is already
// in the request URL the client sent).
var (
	bodyUnknownFunction = []byte("{\"error\":\"unknown function\"}\n")
	bodyTimeout         = []byte("{\"error\":\"request timed out\"}\n")
	bodyShedQueueFull   = []byte("{\"error\":\"function queue full; retry later\"}\n")
	bodyShedNoCapacity  = []byte("{\"error\":\"cluster capacity exhausted; retry later\"}\n")
	bodyShedSaturated   = []byte("{\"error\":\"function saturated; retry later\"}\n")
)

// writeStatic answers with a preformatted JSON body, allocation-free.
func writeStatic(w http.ResponseWriter, code int, body []byte) {
	setContentTypeJSON(w.Header())
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writeShed is the admission-control answer: 429 with a Retry-After
// hint, so a well-behaved client backs off instead of retrying hot.
func writeShed(w http.ResponseWriter, body []byte) {
	h := w.Header()
	setContentTypeJSON(h)
	h["Retry-After"] = headerRetryAfter
	w.WriteHeader(http.StatusTooManyRequests)
	_, _ = w.Write(body)
}

// invokeBufPool recycles response-encoding buffers across invocations.
var invokeBufPool = pool.Of[[]byte]{
	New: func() *[]byte { b := make([]byte, 0, 192); return &b },
}

// writeInvokeResponse encodes InvokeResponse by hand into a pooled
// buffer: the same document json.Marshal would produce, with zero
// steady-state allocations. Kept in lockstep with the InvokeResponse
// struct tags (TestWriteInvokeResponseMatchesJSON pins the equality).
func writeInvokeResponse(w http.ResponseWriter, res *InvokeResponse) {
	buf := invokeBufPool.Get()
	b := (*buf.V())[:0]
	b = append(b, `{"function":`...)
	b = appendJSONString(b, res.Function)
	b = append(b, `,"latencyMs":`...)
	b = appendJSONFloat(b, res.LatencyMs)
	b = append(b, `,"batchSize":`...)
	b = strconv.AppendInt(b, int64(res.BatchSize), 10)
	b = append(b, `,"coldStart":`...)
	b = strconv.AppendBool(b, res.ColdStart)
	b = append(b, `,"instance":`...)
	b = strconv.AppendInt(b, int64(res.Instance), 10)
	b = append(b, '}', '\n')
	setContentTypeJSON(w.Header())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*buf.V() = b
	buf.Put()
}

// appendJSONFloat appends f the way encoding/json renders float64
// ('f' for ordinary magnitudes, 'e' with a trimmed exponent zero at the
// extremes), keeping the pooled encoder byte-identical to json.Marshal.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with the same
// escaping encoding/json applies (including its HTML-safety escapes),
// so the pooled encoder's output is byte-identical to the reflective
// one. Multi-byte UTF-8 passes through untouched.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			b = append(b, '\\', '"')
		case c == '\\':
			b = append(b, '\\', '\\')
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20, c == '<', c == '>', c == '&':
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
