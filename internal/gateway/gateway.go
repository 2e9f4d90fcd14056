// Package gateway runs INFless as a real wall-clock HTTP service: the
// faas-gateway role of the paper's implementation (Section 4). Functions
// deploy over REST (JSON or an INFless template) and invocations block
// until their batch has executed.
//
// The data plane is not the gateway's own: a Server holds one sim.Engine
// — the request/instance state machine the simulator runs, with its
// batch queues, Eq. 1 timeouts, Algorithm 1 placement on a virtual
// cluster, cold-start pricing and keep-alive — and drives it by the wall
// clock instead of a trace (driver.go). Execution is emulated: the
// engine's completion event at the cost model's ground-truth batch time.
// The gateway's own are the REST surface, per-function admission control
// and a small reactive scaling policy (controller.go).
//
// Endpoints:
//
//	POST   /system/functions        deploy {"name","model","slo","maxBatch"} or a text/yaml template
//	GET    /system/functions        list deployed functions
//	DELETE /system/functions/{name} undeploy
//	POST   /function/{name}         invoke (blocks until the batch executes)
//	GET    /system/metrics          telemetry snapshot (?format=json | prometheus)
//
// Server.ServeHTTP routes a canonical invocation — POST /function/ and
// one plain path segment — itself; every other request, escaped and dot
// segments included, goes through an http.ServeMux holding the routes
// above.
//
// The REST surface is normalized: every response carries a Content-Type,
// every error is `{"error": "..."}` JSON with a meaningful status code
// (404 unknown function, 409 duplicate deploy, 400 bad request, 429
// saturated, 503 lost). /system/metrics serves the versioned
// telemetry.Snapshot JSON document by default and the Prometheus text
// exposition with ?format=prometheus — both rendered from the same
// telemetry.Collector that observes the engine's event stream.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/pool"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
)

// Config tunes the gateway.
type Config struct {
	// Cluster is the resource inventory (default: the 8-server testbed).
	Cluster *cluster.Cluster
	// SpeedFactor divides emulated execution times — useful for demos and
	// tests (e.g. 100 makes a 50ms inference take 0.5ms of wall time).
	// Default 1 (real time). Plane time (wall elapsed times SpeedFactor)
	// stops at about 146 years of model time (2^62 ns), which it reaches
	// after 2^62 ns / SpeedFactor of wall time: 77 minutes at 1e6. Past
	// that horizon every invocation is answered 503, and one whose events
	// fall past it stays held until its context ends, its function is
	// deleted or the server closes.
	SpeedFactor float64
	// IdleTimeout reclaims instances with no traffic for this long, in
	// wall time (default 60s).
	IdleTimeout time.Duration
	// Observer, when set, receives every lifecycle event (arrivals, batch
	// submissions, launches, reclaims) after the built-in telemetry
	// collector. Hooks fire on the plane's event loop with its lock held:
	// one at a time, in the engine's deterministic order, from whichever
	// goroutine is advancing the plane. A hook must be quick and must not
	// call back into the Server (it would deadlock on that lock).
	// Event timestamps are plane time: model-time offsets from the
	// server's start, i.e. wall elapsed times SpeedFactor.
	Observer runtime.Observer
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
	mux *http.ServeMux
	cfg Config
	reg *core.Registry
	// pred is the COP predictor behind every deploy's plan. Deploys build
	// their plans concurrently, outside mu; the cache guards its map with
	// an RWMutex and the profiler predictor only reads.
	pred  scheduler.Predictor
	col   *telemetry.Collector // the engine's ledger, behind /system/metrics
	epoch time.Time
	// now is a fake wall clock a test injects (newServer), nil for the
	// real one. With it the server is manual: no pacer, no spinning
	// callers — the test moves the clock and calls step.
	now func() time.Time

	// mu is the gateway's one lock: it guards eng and all the engine owns
	// — the clock, the function table, every function's instances and
	// queues, cfg.Cluster — plus waiters, pacerDue, closed and the
	// functions' admission state. Writes to reg happen under it too, so
	// the registry and the engine's function set change as one step (two
	// racing deploys of one name cannot both pass the duplicate check).
	// Dispatch for all functions serialises here; a critical section is a
	// few hundred nanoseconds of event handling, never a sleep and never
	// a plan build.
	mu       sync.Mutex
	closed   bool
	eng      *sim.Engine
	waiters  map[*sim.Request]*invocation // injected request → its caller, until answered
	pacerDue time.Duration                // plane time the pacer means to sleep until

	wake  chan struct{}   // to the pacer: an earlier event was scheduled
	quit  <-chan struct{} // closed by stop; receive-only, so nothing else can close or send
	stop  func()          // closes quit, once however often it is called
	paced sync.WaitGroup
}

// AllocatedResources returns the cluster's current allocation (exposed
// for operational introspection and tests).
func (s *Server) AllocatedResources() (cpu, gpu int) {
	s.mu.Lock()
	s.advance()
	r := s.eng.Cluster().TotalAllocated()
	s.mu.Unlock()
	return r.CPU, r.GPU
}

// New creates a gateway.
func New(cfg Config) *Server { return newServer(cfg, nil) }

// newServer is New on the given wall clock; nil means the real clock and
// a running pacer.
func newServer(cfg Config, now func() time.Time) *Server {
	if cfg.SpeedFactor <= 0 {
		cfg.SpeedFactor = 1
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 512
	}
	quit := make(chan struct{})
	s := &Server{
		mux:     http.NewServeMux(),
		cfg:     cfg,
		reg:     core.NewRegistry(),
		pred:    scheduler.NewPredictorCache(profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions()))),
		epoch:   time.Now(),
		now:     now,
		waiters: map[*sim.Request]*invocation{},
		wake:    make(chan struct{}, 1),
		quit:    quit,
		stop:    sync.OnceFunc(func() { close(quit) }),
	}
	if now != nil {
		s.epoch = now()
	}
	// The engine feeds the collector under mu; a snapshot taken off the
	// event loop waits for it.
	s.col = telemetry.New(telemetry.Options{Window: time.Minute, Guard: &s.mu})
	s.eng = sim.New(&reactive{hold: s.toModel(time.Second)}, sim.Config{
		Cluster:   cfg.Cluster,
		Seed:      cfg.Seed,
		Collector: s.col,
		Storage:   cfg.Storage,
	})
	if cfg.Observer != nil {
		s.eng.Observe(cfg.Observer)
	}
	s.eng.OnDone(s.requestDone)
	s.eng.Start()
	s.mux.HandleFunc("POST /system/functions", s.handleDeploy)
	s.mux.HandleFunc("GET /system/functions", s.handleList)
	s.mux.HandleFunc("DELETE /system/functions/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /function/{name}", s.handleInvoke)
	s.mux.HandleFunc("GET /system/metrics", s.handleMetrics)
	if now == nil {
		s.paced.Add(1)
		go s.pace()
	}
	return s
}

// ServeHTTP implements http.Handler. A canonical invocation skips the
// mux's pattern matching, which costs a fifth of an in-process invocation
// and allocates; the answer is the one the mux's route would give
// (TestInvokeRouteMatchesMux).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if name, ok := canonicalInvoke(r); ok {
		s.serveInvoke(w, r, name)
		return
	}
	s.serveMux(w, r)
}

const invokePrefix = "/function/"

// canonicalInvoke returns the function a canonical invocation names:
// method POST, a path that is its own escaping (no RawPath), and
// "/function/" followed by one segment that path cleaning leaves as it
// is — non-empty, no slash, not "." or "..". Anything else the mux
// routes, redirects or refuses exactly as before.
func canonicalInvoke(r *http.Request) (name string, ok bool) {
	if r.Method != http.MethodPost || r.URL.RawPath != "" || !strings.HasPrefix(r.URL.Path, invokePrefix) {
		return "", false
	}
	name = r.URL.Path[len(invokePrefix):]
	return name, name != "" && name != "." && name != ".." && strings.IndexByte(name, '/') < 0
}

// serveMux hands a request ServeHTTP does not route itself to the mux,
// whose matching allocates.
func (s *Server) serveMux(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Telemetry returns the gateway's collector: the single source behind
// /system/metrics in both formats, live-readable by embedding callers
// (its snapshots take the server's lock, so not from a Config.Observer
// hook).
func (s *Server) Telemetry() *telemetry.Collector { return s.col }

// PlaneRate returns the gateway-wide arrival rate (RPS of model time)
// over the rate window, aggregated across all functions.
func (s *Server) PlaneRate() float64 {
	s.mu.Lock()
	s.advance()
	r := s.eng.PlaneRate()
	s.mu.Unlock()
	return r
}

// Close undeploys every function — each request still held, queued or
// executing is answered (503) exactly once, every instance releases its
// resources — then stops the pacer and joins it. Close is final: later
// deploys are refused. It may be called again, and concurrently; every
// call returns only once the pacer has exited.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.advance()
	for fns := s.eng.Functions(); len(fns) > 0; fns = s.eng.Functions() {
		s.remove(fns[0].CtrlState().(*function))
	}
	s.mu.Unlock()
	s.stop()
	s.paced.Wait()
}

// remove takes f out of the registry and the engine. Callers hold mu.
func (s *Server) remove(f *function) {
	s.reg.Delete(f.fs.Spec.Name)
	f.launch.Cancel()
	s.eng.RemoveFunction(f.fs)
}

// DeployRequest is the JSON deployment body.
type DeployRequest struct {
	Name     string `json:"name"`
	Model    string `json:"model"`
	SLO      string `json:"slo"` // Go duration, e.g. "200ms"
	MaxBatch int    `json:"maxBatch,omitempty"`
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	// An absent Content-Type means JSON; parameters (charset) are ignored.
	ct := "application/json"
	if h := r.Header.Get("Content-Type"); h != "" {
		ct, _, _ = mime.ParseMediaType(h) // "" on a malformed header: 415 below
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var entries []core.RegistryEntry
	switch ct {
	case "application/json":
		var req DeployRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			deployBodyError(w, "bad json", err)
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
	case "text/yaml", "application/x-yaml":
		buf, err := io.ReadAll(r.Body)
		if err != nil {
			deployBodyError(w, "read template", err)
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

// deployBodyError answers a deploy whose body could not be read or
// decoded: 413 past the size cap, 400 otherwise.
func deployBodyError(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge,
			"template too large (limit %d bytes)", mbe.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "%s: %v", what, err)
}

// statusError carries the HTTP status a gateway-internal failure maps to
// (409 duplicate deploy, etc.); handlers unwrap it with errors.As.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func (s *Server) deploy(e core.RegistryEntry) error {
	// The slow part — validation and the plan — runs before the lock, so
	// deploys build plans concurrently and the invoke path never waits
	// for one. What is left is one short mu section: duplicate check,
	// registry write and AddFunction either all happen or none does, so
	// there is nothing to roll back.
	if err := e.Validate(); err != nil {
		return err
	}
	m := model.MustGet(e.ModelName)
	plan := scheduler.BuildPlan(scheduler.Function{Name: e.Name, Model: m, SLO: e.SLO, MaxBatch: e.MaxBatchSize},
		s.pred, scheduler.Options{MaxInstancesPerCall: 1})
	if !plan.Feasible() {
		return fmt.Errorf("gateway: no configuration of %s meets %v", e.ModelName, e.SLO)
	}
	f := &function{plan: plan}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return &statusError{http.StatusServiceUnavailable, "gateway: closed"}
	}
	if _, exists := s.reg.Lookup(e.Name); exists {
		return &statusError{http.StatusConflict,
			fmt.Sprintf("gateway: function %s already deployed", e.Name)}
	}
	if err := s.reg.Register(e); err != nil {
		return err
	}
	s.advance()
	// IdleTimeout is wall time, the engine's keep-alive model time; a
	// fixed policy never pre-warms, so every launch pays its cold start.
	f.fs = s.eng.AddFunction(sim.FunctionSpec{
		Name:     e.Name,
		Model:    m,
		SLO:      e.SLO,
		MaxBatch: e.MaxBatchSize,
		Policy:   coldstart.Fixed{KeepAlive: s.toModel(s.cfg.IdleTimeout)},
	})
	f.fs.SetCtrlState(f)
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	s.advance()
	fs := s.eng.Function(name)
	if fs != nil {
		s.remove(fs.CtrlState().(*function))
	}
	s.mu.Unlock()
	if fs == nil {
		httpError(w, http.StatusNotFound, "unknown function %s", name)
		return
	}
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

// handleInvoke is the mux's invoke route, for the requests ServeHTTP
// leaves to the mux.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	s.serveInvoke(w, r, r.PathValue("name"))
}

// serveInvoke is the hot path: the engine round trip and a pooled
// response encode. Steady state allocates nothing
// (TestServeHTTPInvokeDoesNotAllocate, its 429 shed included; check.sh's
// gw_dispatch smoke gates an in-process invocation at 1.2 B); every error
// answer is a preformatted body, and saturation maps to 429 + Retry-After
// so clients can tell "back off" from "broken".
func (s *Server) serveInvoke(w http.ResponseWriter, r *http.Request, name string) {
	res, err := s.invoke(r.Context(), name)
	switch err {
	case nil:
		writeInvokeResponse(w, &res)
	case errShedQueueFull:
		writeShed(w, bodyShedQueueFull)
	case errShedSaturated:
		writeShed(w, bodyShedSaturated)
	case errUnknown:
		writeStatic(w, http.StatusNotFound, bodyUnknownFunction)
	case errLost:
		writeStatic(w, http.StatusServiceUnavailable, bodyLost)
	case errHorizon:
		writeStatic(w, http.StatusServiceUnavailable, bodyHorizon)
	default: // the caller's context ended
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
		// The plane-wide arrival gauge comes from the engine's rate ring,
		// not the collector — append it to the exposition.
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
// (fmt, reflective encode), off the allocation-free invoke path.
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
	bodyLost            = []byte("{\"error\":\"request lost: its instance or function went away\"}\n")
	bodyShedQueueFull   = []byte("{\"error\":\"function queue full; retry later\"}\n")
	bodyShedSaturated   = []byte("{\"error\":\"function saturated or cluster full; retry later\"}\n")
	bodyHorizon         = []byte("{\"error\":\"plane time exhausted: restart the gateway\"}\n")
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
//
// A latency is whole nanoseconds over 1e6, so f is nearly always the
// double nearest a decimal n/10⁶ with integer n. Below n = 10¹⁵ that
// decimal has at most 15 significant digits, and no other decimal of at
// most 15 digits rounds to the same double, so it is the shortest string
// that round-trips f — what strconv would print, without its search.
// Everything else takes strconv's path.
func appendJSONFloat(b []byte, f float64) []byte {
	if n := math.Round(f * 1e6); n >= 1 && n < 1e15 && n/1e6 == f {
		return appendMicros(b, uint64(n))
	}
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

// appendMicros appends n/10⁶ in decimal: the integer part, then the six
// fraction digits with trailing zeros trimmed (and no point if none is
// left).
func appendMicros(b []byte, n uint64) []byte {
	b = strconv.AppendUint(b, n/1e6, 10)
	frac := n % 1e6
	if frac == 0 {
		return b
	}
	var digits [6]byte // by constant divisors: a variable one is a DIV a digit
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	end := len(digits)
	for digits[end-1] == '0' {
		end--
	}
	b = append(b, '.')
	return append(b, digits[:end]...)
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
